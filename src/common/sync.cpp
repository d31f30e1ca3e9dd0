#include "common/sync.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"

namespace lw {

namespace {

/// Detector ids are minted once per Mutex object and never reused, so a
/// destroyed mutex's graph node can be erased without ABA against a new
/// mutex reusing its address.
std::atomic<std::uint64_t> g_next_id{1};

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

/// One mutex's node in the observed acquired-before graph. `out[b]` holds
/// the diagnostic context captured the first time this mutex was held while
/// acquiring `b` — the OTHER stack's lock set when an inversion later trips.
struct Node {
  const char* name = "";
  int rank = kNoRank;
  std::map<std::uint64_t, std::string> out;
};

/// Process-wide acquired-before graph. Guarded by a raw std::mutex (the one
/// permitted raw primitive outside the wrappers: the detector cannot
/// instrument its own lock). Leaked on purpose so ~Mutex of static-storage
/// mutexes can deregister safely during shutdown.
struct Graph {
  std::mutex mu;
  std::unordered_map<std::uint64_t, Node> nodes;
};

Graph& TheGraph() {
  static Graph* graph = new Graph;
  return *graph;
}

struct HeldLock {
  const Mutex* mu = nullptr;
  std::uint64_t id = 0;
};

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
  const HeldLock* begin() const { return locks_; }
  const HeldLock* end() const { return locks_ + size_; }

  void Push(HeldLock held) {
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
      if (locks_[i].mu == &mu) {
        std::copy(locks_ + i + 1, locks_ + size_, locks_ + i);
        --size_;
        return true;
      }
    }
    return false;
  }

 private:
  HeldLock locks_[kCapacity];
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
  out += "'";
  if (mu.rank() != kNoRank) {
    out += " (rank ";
    out += std::to_string(mu.rank());
    out += ")";
  }
  return out;
}

std::string DescribeHeld() {
  if (t_held.empty()) return "{}";
  std::string out = "{";
  for (const HeldLock& held : t_held) {
    if (&held != t_held.begin()) out += ", ";
    out += Describe(*held.mu);
  }
  out += "}";
  return out;
}

/// BFS for a path `from` -> `to` over the acquired-before edges. Returns the
/// node ids along the path (inclusive) or empty when unreachable. Caller
/// holds Graph::mu.
std::vector<std::uint64_t> FindPath(const Graph& graph, std::uint64_t from,
                                    std::uint64_t to) {
  std::unordered_map<std::uint64_t, std::uint64_t> parent;
  std::deque<std::uint64_t> frontier{from};
  parent.emplace(from, from);
  while (!frontier.empty()) {
    const std::uint64_t id = frontier.front();
    frontier.pop_front();
    auto node = graph.nodes.find(id);
    if (node == graph.nodes.end()) continue;
    for (const auto& [next, context] : node->second.out) {
      if (!parent.emplace(next, id).second) continue;
      if (next == to) {
        std::vector<std::uint64_t> path{to};
        for (std::uint64_t cursor = id; cursor != from; cursor = parent.at(cursor)) {
          path.push_back(cursor);
        }
        path.push_back(from);
        return {path.rbegin(), path.rend()};  // built back-to-front
      }
      frontier.push_back(next);
    }
  }
  return {};
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
bool OnAcquire(const Mutex& mu, std::uint64_t id) {
  if (t_reporting || !DeadlockDetectorEnabled()) return true;

  for (const HeldLock& held : t_held) {
    if (held.mu == &mu) {
      ReportViolation("re-entrant acquisition of lw::Mutex " + Describe(mu) +
                      ": this thread already holds it; held " + DescribeHeld());
      return false;
    }
  }

  if (mu.rank() != kNoRank) {
    for (const HeldLock& held : t_held) {
      if (held.mu->rank() != kNoRank && held.mu->rank() >= mu.rank()) {
        ReportViolation("lock-rank violation: acquiring " + Describe(mu) +
                        " while holding " + Describe(*held.mu) +
                        "; ranks must be acquired in strictly increasing order"
                        " (lock hierarchy: DESIGN.md section 5.5); held " +
                        DescribeHeld());
        return true;
      }
    }
  }

  if (t_held.empty()) return true;

  std::string violation;
  {
    Graph& graph = TheGraph();
    std::lock_guard<std::mutex> g(graph.mu);
    Node& node = graph.nodes[id];
    node.name = mu.name();
    node.rank = mu.rank();
    for (const HeldLock& held : t_held) {
      auto path = FindPath(graph, id, held.id);
      if (path.empty()) continue;
      // Acquiring `mu` while holding `held` would add the edge held->mu,
      // but the graph already proves mu (transitively) acquired-before
      // held: a cycle. Attach each recorded edge's context — the lock set
      // of the thread that observed the opposite order.
      violation = "lock-order inversion: acquiring " + Describe(mu) +
                  " while holding " + Describe(*held.mu) +
                  " closes a cycle in the acquired-before graph; this thread"
                  " holds " +
                  DescribeHeld();
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const auto from = graph.nodes.find(path[i]);
        if (from == graph.nodes.end()) continue;
        const auto edge = from->second.out.find(path[i + 1]);
        if (edge == from->second.out.end()) continue;
        violation += "; opposite order was recorded " + edge->second;
      }
      break;
    }
    if (violation.empty()) {
      const std::string context =
          "holding " + DescribeHeld() + " while acquiring " + Describe(mu);
      for (const HeldLock& held : t_held) {
        Node& held_node = graph.nodes[held.id];
        held_node.name = held.mu->name();
        held_node.rank = held.mu->rank();
        held_node.out.try_emplace(id, context);
      }
    }
  }
  if (!violation.empty()) ReportViolation(violation);
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
    : name_(name == nullptr ? "" : name),
      rank_(rank),
      id_(g_next_id.fetch_add(1, std::memory_order_relaxed)) {}

Mutex::~Mutex() {
  Graph& graph = TheGraph();
  std::lock_guard<std::mutex> g(graph.mu);
  graph.nodes.erase(id_);
  for (auto& [id, node] : graph.nodes) node.out.erase(id_);
}

void Mutex::Lock() LW_NO_THREAD_SAFETY_ANALYSIS {
  if (OnAcquire(*this, id_)) {
    mu_.lock();
    t_held.Push(HeldLock{this, id_});
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
