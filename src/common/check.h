// Always-on contracts for the lightwave library (the correctness-
// verification layer). Unlike assert(), LW_CHECK stays active in every
// build type: the paper's availability claims rest on structural invariants
// (bijective crossbar mappings, undisturbed reconfiguration, monotone sim
// time) that must fail loudly in Release test runs too.
//
//   LW_CHECK(cond) << "context";       fatal contract; streams a message
//   LW_CHECK_OK(status_or_result);     fatal unless .ok(); streams the error
//   LW_DCHECK(cond) << "context";      debug-only (NDEBUG strips it; define
//                                      LIGHTWAVE_FORCE_DCHECKS to keep it)
//   LW_ENSURE(cond)                    recoverable: reports and evaluates to
//                                      the condition, never aborts — for
//                                      rejecting malformed external input
//   LW_UNREACHABLE() << "why";         fatal; marks impossible branches
//
// Every violation is routed through a process-wide pluggable handler. The
// default handler writes the failure to stderr and aborts on fatal kinds
// (kEnsure only logs the first few occurrences and continues). Tests swap
// in a recording handler via ScopedCheckHandler.
//
// Structural validators (PalomarSwitch::ValidateInvariants and friends) are
// gated on the runtime validation mode: on by default in debug builds, off
// in optimized builds, overridable with the LIGHTWAVE_VALIDATE environment
// variable or SetValidationEnabled()/ScopedValidation.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

namespace lightwave::common {

/// Where a contract was written, captured by the macros.
struct SourceLocation {
  const char* file = "";
  int line = 0;
  const char* function = "";
};

enum class CheckKind { kCheck, kDcheck, kEnsure, kUnreachable };

const char* ToString(CheckKind kind);

/// One contract violation, as handed to the failure handler.
struct CheckFailure {
  CheckKind kind = CheckKind::kCheck;
  const char* condition = "";
  SourceLocation where;
  /// Message streamed by the call site; empty when none was streamed.
  std::string message;
};

/// `file:line (function): LW_CHECK(cond) failed: message`
std::string FormatCheckFailure(const CheckFailure& failure);

/// Process-wide failure handler. Fatal kinds (everything except kEnsure)
/// abort under the DEFAULT handler; a custom handler that returns lets
/// execution continue, which is what the negative tests rely on.
using CheckHandler = std::function<void(const CheckFailure&)>;

/// Replaces the handler (empty restores the default). Returns the previous
/// handler so callers can chain or restore.
CheckHandler SetCheckHandler(CheckHandler handler);

/// RAII handler swap for tests.
class ScopedCheckHandler {
 public:
  explicit ScopedCheckHandler(CheckHandler handler)
      : previous_(SetCheckHandler(std::move(handler))) {}
  ~ScopedCheckHandler() { SetCheckHandler(std::move(previous_)); }
  ScopedCheckHandler(const ScopedCheckHandler&) = delete;
  ScopedCheckHandler& operator=(const ScopedCheckHandler&) = delete;

 private:
  CheckHandler previous_;
};

/// Violation counts since process start, independent of the handler.
struct CheckStats {
  std::uint64_t fatal_failures = 0;   // kCheck, kDcheck, kUnreachable
  std::uint64_t ensure_failures = 0;  // kEnsure
};
CheckStats GetCheckStats();

/// --- validation mode ---------------------------------------------------
/// Gates the structural validators that run at transaction boundaries
/// (crossbar bijectivity, slice accounting, link-state symmetry). Default:
/// on in debug builds, off under NDEBUG; the LIGHTWAVE_VALIDATE environment
/// variable (0/1) overrides the default at first query.
bool ValidationEnabled();
void SetValidationEnabled(bool enabled);

/// RAII validation-mode toggle for tests.
class ScopedValidation {
 public:
  explicit ScopedValidation(bool enabled = true) : previous_(ValidationEnabled()) {
    SetValidationEnabled(enabled);
  }
  ~ScopedValidation() { SetValidationEnabled(previous_); }
  ScopedValidation(const ScopedValidation&) = delete;
  ScopedValidation& operator=(const ScopedValidation&) = delete;

 private:
  bool previous_;
};

#if !defined(NDEBUG) || defined(LIGHTWAVE_FORCE_DCHECKS)
inline constexpr bool kDchecksEnabled = true;
#else
inline constexpr bool kDchecksEnabled = false;
#endif

namespace check_internal {

/// Collects the streamed message; its destructor reports the failure (and,
/// under the default handler, aborts for fatal kinds). Only constructed on
/// the failure path, so passing contracts cost one branch.
class FailureStream {
 public:
  FailureStream(CheckKind kind, const char* condition, SourceLocation where)
      : kind_(kind), condition_(condition), where_(where) {}
  ~FailureStream();
  FailureStream(const FailureStream&) = delete;
  FailureStream& operator=(const FailureStream&) = delete;

  template <typename T>
  FailureStream& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  CheckKind kind_;
  const char* condition_;
  SourceLocation where_;
  std::ostringstream stream_;
};

/// Swallows the stream in the false branch of the ternary so both branches
/// are void (the glog idiom; & binds looser than <<).
struct Voidify {
  void operator&(FailureStream&) {}
  void operator&(FailureStream&&) {}
};

/// Reports a non-fatal LW_ENSURE violation; always returns false.
bool ReportEnsureFailure(const char* condition, SourceLocation where);

}  // namespace check_internal
}  // namespace lightwave::common

#define LW_CHECK_SOURCE_LOCATION \
  ::lightwave::common::SourceLocation { __FILE__, __LINE__, __func__ }

#define LW_CHECK_IMPL(kind, cond)                          \
  (cond) ? (void)0                                         \
         : ::lightwave::common::check_internal::Voidify()& \
               ::lightwave::common::check_internal::FailureStream(kind, #cond, \
                                                                  LW_CHECK_SOURCE_LOCATION)

/// Fatal contract, active in all build types.
#define LW_CHECK(cond) LW_CHECK_IMPL(::lightwave::common::CheckKind::kCheck, cond)

/// Fatal contract on a common::Status / common::Result: passes when .ok(),
/// otherwise streams the error code and message before the handler runs.
#define LW_CHECK_OK(expr)                                                                \
  switch (0)                                                                             \
  case 0:                                                                                \
  default:                                                                               \
    if (const auto& lw_check_ok_ = (expr); lw_check_ok_.ok()) {                          \
    } else                                                                               \
      ::lightwave::common::check_internal::FailureStream(                                \
          ::lightwave::common::CheckKind::kCheck, #expr " is OK",                        \
          LW_CHECK_SOURCE_LOCATION)                                                      \
          << "[" << ::lightwave::common::ToString(lw_check_ok_.error().code) << "] "     \
          << lw_check_ok_.error().message << " "

/// Debug-only fatal contract. Compiled out under NDEBUG (the condition is
/// not evaluated) unless LIGHTWAVE_FORCE_DCHECKS is defined.
#if !defined(NDEBUG) || defined(LIGHTWAVE_FORCE_DCHECKS)
#define LW_DCHECK(cond) LW_CHECK_IMPL(::lightwave::common::CheckKind::kDcheck, cond)
#else
#define LW_DCHECK(cond) LW_CHECK_IMPL(::lightwave::common::CheckKind::kDcheck, true || (cond))
#endif

/// Recoverable contract for rejecting malformed external input (wire
/// frames, operator commands): reports through the handler, never aborts,
/// and evaluates to the condition so callers can bail out:
///   if (!LW_ENSURE(crc_matches)) return std::nullopt;
#define LW_ENSURE(cond)                                            \
  (static_cast<bool>(cond)                                         \
       ? true                                                      \
       : ::lightwave::common::check_internal::ReportEnsureFailure( \
             #cond, LW_CHECK_SOURCE_LOCATION))

/// Fatal marker for impossible branches.
#define LW_UNREACHABLE()                                      \
  ::lightwave::common::check_internal::Voidify()&             \
      ::lightwave::common::check_internal::FailureStream(     \
          ::lightwave::common::CheckKind::kUnreachable,       \
          "reached unreachable code", LW_CHECK_SOURCE_LOCATION)
