#include "common/sync.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/check.h"

namespace lw {

namespace {

/// -1 = not yet resolved, else 0/1 (same lazy-env pattern as
/// common::ValidationEnabled()).
std::atomic<int> g_enabled{-1};

bool DefaultDetectorEnabled() {
  if (const char* env = std::getenv("LIGHTWAVE_LOCK_RANK")) {
    return env[0] != '\0' && env[0] != '0';
  }
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

/// The calling thread's held-lock stack, in acquisition order. Maintained
/// unconditionally (cheap: one push/pop per lock) so toggling the detector
/// while locks are held never desynchronizes it. Fixed capacity, so it is
/// trivially destructible: the main thread's thread_locals are destroyed
/// before static objects at exit, and static destructors still take locks
/// (the thread pool's takes its queue mutex), which would push onto a freed
/// std::vector.
class HeldStack {
 public:
  static constexpr std::size_t kCapacity = 64;

  bool empty() const { return size_ == 0; }
  const Mutex* const* begin() const { return locks_; }
  const Mutex* const* end() const { return locks_ + size_; }

  void Push(const Mutex* held) {
    if (size_ == kCapacity) {
      // Not LW_CHECK: the check handler takes a lock itself.
      std::fputs("lw::Mutex: more than 64 locks held by one thread\n", stderr);
      std::abort();
    }
    locks_[size_++] = held;
  }
  /// Drops the most recent entry for `mu`; false when the thread holds none.
  bool Remove(const Mutex& mu) {
    for (std::size_t i = size_; i-- > 0;) {
      if (locks_[i] == &mu) {
        std::copy(locks_ + i + 1, locks_ + size_, locks_ + i);
        --size_;
        return true;
      }
    }
    return false;
  }

 private:
  const Mutex* locks_[kCapacity] = {};
  std::size_t size_ = 0;
};
thread_local HeldStack t_held;

/// True while a violation is being reported: the check handler may itself
/// take locks (check.cpp's handler slot), and re-running the detector from
/// inside its own failure path must not recurse or re-trip.
thread_local bool t_reporting = false;

std::string Describe(const Mutex& mu) {
  std::string out = "'";
  out += mu.name()[0] != '\0' ? mu.name() : "<unnamed>";
  out += "' (rank ";
  out += std::to_string(mu.rank());
  out += ")";
  return out;
}

std::string DescribeHeld() {
  if (t_held.empty()) return "{}";
  std::string out = "{";
  for (const Mutex* const& held : t_held) {
    if (&held != t_held.begin()) out += ", ";
    out += Describe(*held);
  }
  out += "}";
  return out;
}

/// Fires the contract. Under the default handler this aborts with the
/// message; under a test's recording handler it returns, and the detector's
/// own bookkeeping stays consistent so the test can keep going.
void ReportViolation(const std::string& message) {
  t_reporting = true;
  const bool lock_discipline_ok = false;
  LW_CHECK(lock_discipline_ok) << message;
  t_reporting = false;
}

/// Pre-acquisition checks. Returns false when the actual mu_.lock() must be
/// skipped (re-entrant acquisition with a continuing handler: locking again
/// would deadlock the thread on its own non-recursive mutex).
bool OnAcquire(const Mutex& mu) {
  if (t_reporting || !DeadlockDetectorEnabled()) return true;

  for (const Mutex* held : t_held) {
    if (held == &mu) {
      ReportViolation("re-entrant acquisition of lw::Mutex " + Describe(mu) +
                      ": this thread already holds it; held " + DescribeHeld());
      return false;
    }
  }

  for (const Mutex* held : t_held) {
    if (held->rank() >= mu.rank()) {
      ReportViolation("lock-rank violation: acquiring " + Describe(mu) +
                      " while holding " + Describe(*held) +
                      "; ranks must be acquired in strictly increasing order"
                      " (lock hierarchy: DESIGN.md section 5.5); held " +
                      DescribeHeld());
      break;
    }
  }
  return true;
}

/// Post-release bookkeeping. Returns false when the actual mu_.unlock()
/// must be skipped (the thread does not hold the mutex; unlocking anyway is
/// undefined behaviour on std::mutex).
bool OnRelease(const Mutex& mu) {
  if (t_held.Remove(mu)) return true;
  if (t_reporting || !DeadlockDetectorEnabled()) return true;
  ReportViolation("unlocking lw::Mutex " + Describe(mu) +
                  " that this thread does not hold; held " + DescribeHeld());
  return false;
}

}  // namespace

Mutex::Mutex(const char* name, int rank)
    : name_(name == nullptr ? "" : name), rank_(rank) {}

void Mutex::Lock() LW_NO_THREAD_SAFETY_ANALYSIS {
  if (OnAcquire(*this)) {
    mu_.lock();
    t_held.Push(this);
  }
}

void Mutex::Unlock() LW_NO_THREAD_SAFETY_ANALYSIS {
  if (OnRelease(*this)) {
    mu_.unlock();
  }
}

void CondVar::Wait(Mutex& mu) LW_NO_THREAD_SAFETY_ANALYSIS {
  // condition_variable_any releases and reacquires through Mutex::lock/
  // unlock, so the held stack and rank checks stay exact across the wait.
  cv_.wait(mu);
}

void CondVar::NotifyOne() { cv_.notify_one(); }

void CondVar::NotifyAll() { cv_.notify_all(); }

bool DeadlockDetectorEnabled() {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    state = DefaultDetectorEnabled() ? 1 : 0;
    g_enabled.store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void SetDeadlockDetectorEnabled(bool enabled) {
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace lw
