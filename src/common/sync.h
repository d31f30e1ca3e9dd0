// Annotated synchronization vocabulary for the whole tree. Every mutex and
// condition variable in lightwave code goes through these wrappers (enforced
// by scripts/lint_locks.py; raw std primitives are allowed only inside this
// header), which buys two layers of verification on top of TSan's dynamic
// racing:
//
//   1. COMPILE TIME — the types carry Clang thread-safety capabilities
//      (common/thread_annotations.h), so `-Werror=thread-safety` on the
//      clang CI leg rejects any guarded-member access outside its mutex and
//      any lock-requiring method called without the lock, on every path,
//      including ones no test executes.
//
//   2. RUN TIME (the lock-rank detector) — ordering bugs TSA cannot see.
//      Every lw::Mutex carries a RANK from the repo-wide lock hierarchy
//      below (DESIGN.md §5.5 has the full table); the constructor requires
//      one. While the detector is enabled, every thread tracks its held-lock
//      stack and:
//        - acquiring a mutex while holding one of equal or higher rank
//          trips LW_CHECK (rank order is strictly increasing inward). Since
//          every nesting that passes this check ascends, no two threads can
//          wait on each other in a cycle: the rank order is the lock order;
//        - re-entrant acquisition and unlocking a mutex the thread does not
//          hold trip immediately (std::mutex makes both undefined).
//      Default: enabled in Debug builds (!NDEBUG), disabled in optimized
//      builds; the LIGHTWAVE_LOCK_RANK environment variable (0/1) overrides
//      the default, and tests force it with ScopedDeadlockDetector.
//
// The namespace is deliberately the short `lw::` — sync primitives appear
// on nearly every line of concurrent code and read as vocabulary, not as a
// subsystem: `lw::MutexLock lock(mu_);`.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace lw {

/// The repo-wide lock hierarchy: ranks must be acquired in strictly
/// increasing order, so outermost (coarsest) locks rank lowest and locks
/// that may be taken under anything — the telemetry plane, the check
/// handler — rank highest. DESIGN.md §5.5 is the authoritative table of
/// which mutex guards what; keep the two in sync.
namespace rank {
inline constexpr int kFleetAdmission = 10;   // fleet::AdmissionQueue::mu_
inline constexpr int kShardHandoff = 20;     // fleet::Shard::handoff_mu_
inline constexpr int kShardStats = 30;       // fleet::Shard::stats_mu_
inline constexpr int kPoolRegistry = 40;     // parallel global pool slot
inline constexpr int kPoolQueue = 45;        // parallel ThreadPool::mu_
inline constexpr int kParallelRegion = 48;   // parallel Region::mu
inline constexpr int kTelemetryRegistry = 90;  // MetricsRegistry::mu_
inline constexpr int kTracer = 91;             // Tracer::mu_
inline constexpr int kTelemetrySeries = 92;    // Histogram/TimeSeries::mu_
inline constexpr int kCheckHandler = 100;      // check.cpp handler slot
}  // namespace rank

/// Annotated exclusive mutex. Non-recursive (like std::mutex); Lock/Unlock
/// feed the lock-rank detector, lock/unlock are BasicLockable aliases for
/// CondVar. Every mutex is named and ranked: the name appears in the
/// detector's diagnostics, the rank places it in the hierarchy above.
class LW_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* name, int rank);

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LW_ACQUIRE();
  void Unlock() LW_RELEASE();

  /// BasicLockable interface (std::condition_variable_any inside
  /// CondVar::Wait releases and reacquires through these, so the detector's
  /// held stack stays exact across a wait).
  void lock() LW_ACQUIRE() { Lock(); }
  void unlock() LW_RELEASE() { Unlock(); }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const char* name_;
  int rank_;
};

/// RAII lock scope, the only idiom for taking an lw::Mutex:
///   lw::MutexLock lock(mu_);
class LW_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LW_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() LW_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to lw::Mutex. No predicate overload on purpose:
/// TSA cannot see capabilities inside a predicate lambda, so waits are
/// written as explicit loops in the annotated caller —
///   lw::MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and reacquires before returning.
  void Wait(Mutex& mu) LW_REQUIRES(mu);
  void NotifyOne();
  void NotifyAll();

 private:
  std::condition_variable_any cv_;
};

/// --- lock-rank detector controls ----------------------------------------

/// True while the detector checks every acquire/release. Resolved on first
/// query: Debug default on, NDEBUG default off, LIGHTWAVE_LOCK_RANK=0/1
/// overrides (same pattern as common::ValidationEnabled()).
bool DeadlockDetectorEnabled();
void SetDeadlockDetectorEnabled(bool enabled);

/// RAII detector toggle for tests (sync_test forces it on so the detector
/// is exercised under every CI leg, including the NDEBUG sanitizer builds).
class ScopedDeadlockDetector {
 public:
  explicit ScopedDeadlockDetector(bool enabled = true)
      : previous_(DeadlockDetectorEnabled()) {
    SetDeadlockDetectorEnabled(enabled);
  }
  ~ScopedDeadlockDetector() { SetDeadlockDetectorEnabled(previous_); }
  ScopedDeadlockDetector(const ScopedDeadlockDetector&) = delete;
  ScopedDeadlockDetector& operator=(const ScopedDeadlockDetector&) = delete;

 private:
  bool previous_;
};

}  // namespace lw
