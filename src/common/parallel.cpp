#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <thread>

#include "common/check.h"
#include "common/sync.h"
#include "common/thread_annotations.h"

namespace lightwave::common::parallel {

namespace {

/// True while the current thread is executing a chunk body; nested
/// ParallelFor calls from such a thread run serially inline.
thread_local bool t_in_region = false;

/// One ParallelFor invocation. Shared between the calling thread and the
/// pool workers through a shared_ptr so late-dequeued runner tasks stay
/// valid after the region completed.
struct Region {
  std::uint64_t n = 0;
  std::uint64_t chunk_size = 0;
  std::uint64_t chunks = 0;
  const ChunkBody* body = nullptr;
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> done{0};
  /// Slot per chunk; only the owning chunk writes it.
  std::vector<std::exception_ptr> errors;
  /// Completion handshake only (`done` is the actual state, and it is
  /// atomic): the mutex orders the final notify against the caller's wait.
  lw::Mutex mu{"parallel.region", lw::rank::kParallelRegion};
  lw::CondVar cv;
};

/// Claims and executes chunks until the region is drained. Returns once no
/// chunk is left to claim.
void RunChunks(Region& region) {
  const bool outer = !t_in_region;
  t_in_region = true;
  for (;;) {
    const std::uint64_t chunk = region.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= region.chunks) break;
    const auto [begin, end] = ChunkBounds(region.n, region.chunk_size, chunk);
    try {
      (*region.body)(begin, end, chunk);
    } catch (...) {
      region.errors[static_cast<std::size_t>(chunk)] = std::current_exception();
    }
    if (region.done.fetch_add(1, std::memory_order_acq_rel) + 1 == region.chunks) {
      // Last chunk: wake the calling thread if it is already waiting.
      lw::MutexLock lock(region.mu);
      region.cv.NotifyAll();
    }
  }
  if (outer) t_in_region = false;
}

class ThreadPool {
 public:
  explicit ThreadPool(int threads) : threads_(threads) {
    for (int i = 1; i < threads_; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ThreadPool() {
    {
      lw::MutexLock lock(mu_);
      stopped_ = true;
    }
    cv_.NotifyAll();
    for (auto& w : workers_) w.join();
    // Contract: nothing may execute after shutdown — the queue must have
    // been fully drained by the joining workers.
    lw::MutexLock lock(mu_);
    LW_DCHECK(queue_.empty()) << "thread pool destroyed with queued tasks";
  }

  int threads() const { return threads_; }

  void Submit(std::shared_ptr<Region> region, int runners) {
    {
      lw::MutexLock lock(mu_);
      LW_CHECK(!stopped_) << "Submit after thread-pool shutdown";
      for (int i = 0; i < runners; ++i) queue_.push_back(region);
    }
    cv_.NotifyAll();
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<Region> region;
      {
        lw::MutexLock lock(mu_);
        while (!stopped_ && queue_.empty()) cv_.Wait(mu_);
        if (queue_.empty()) return;  // stopped_ && drained
        region = std::move(queue_.front());
        queue_.pop_front();
      }
      LW_DCHECK(region != nullptr) << "null region in pool queue";
      RunChunks(*region);
    }
  }

  const int threads_;
  lw::Mutex mu_{"parallel.pool", lw::rank::kPoolQueue};
  lw::CondVar cv_;
  std::deque<std::shared_ptr<Region>> queue_ LW_GUARDED_BY(mu_);
  bool stopped_ LW_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

int DefaultThreads() {
  if (const char* env = std::getenv("LIGHTWAVE_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<int>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

lw::Mutex& PoolMutex() {
  static lw::Mutex mu("parallel.registry", lw::rank::kPoolRegistry);
  return mu;
}

/// The process-wide pool and the thread count it runs at. `threads` is 0
/// until SetThreads configures it (DefaultThreads() then applies); a count
/// of 1 keeps `pool` null, so serial mode stays serial.
struct PoolSlot {
  int threads = 0;
  std::unique_ptr<ThreadPool> pool;

  int configured() const { return threads > 0 ? threads : DefaultThreads(); }
};

PoolSlot& GlobalSlot() {
  static PoolSlot slot;
  return slot;
}

/// The process-wide pool, created on first use. Returns nullptr when the
/// configured thread count is 1 (serial mode needs no pool).
ThreadPool* GlobalPool() {
  lw::MutexLock lock(PoolMutex());
  PoolSlot& slot = GlobalSlot();
  if (slot.pool == nullptr) {
    const int threads = slot.configured();
    if (threads <= 1) return nullptr;
    slot.pool = std::make_unique<ThreadPool>(threads);
  }
  return slot.pool.get();
}

/// Debug audit (LW_DCHECK): the chunk ranges partition [0, n) exactly —
/// contiguous, non-overlapping, and jointly exhaustive.
bool PartitionIsExact(std::uint64_t n, std::uint64_t chunk_size, std::uint64_t chunks) {
  std::uint64_t cursor = 0;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    const auto [begin, end] = ChunkBounds(n, chunk_size, c);
    if (begin != cursor || end <= begin || end > n) return false;
    cursor = end;
  }
  return cursor == n;
}

}  // namespace

int Threads() {
  lw::MutexLock lock(PoolMutex());
  return GlobalSlot().configured();
}

void SetThreads(int threads) {
  LW_CHECK(threads >= 1) << "thread count must be >= 1";
  LW_CHECK(!t_in_region) << "SetThreads from inside a parallel region";
  lw::MutexLock lock(PoolMutex());
  PoolSlot& slot = GlobalSlot();
  slot.pool.reset();  // joins existing workers
  slot.threads = threads;
  if (threads > 1) slot.pool = std::make_unique<ThreadPool>(threads);
}

std::uint64_t NumChunks(std::uint64_t n, std::uint64_t chunk_size) {
  if (n == 0) return 0;
  if (chunk_size == 0) {
    // Automatic policy: a fixed upper bound on chunk count, so the
    // partition is identical on every machine.
    chunk_size = (n + kDefaultMaxChunks - 1) / kDefaultMaxChunks;
    if (chunk_size == 0) chunk_size = 1;
  }
  return (n + chunk_size - 1) / chunk_size;
}

std::pair<std::uint64_t, std::uint64_t> ChunkBounds(std::uint64_t n,
                                                    std::uint64_t chunk_size,
                                                    std::uint64_t chunk) {
  if (chunk_size == 0) {
    chunk_size = (n + kDefaultMaxChunks - 1) / kDefaultMaxChunks;
    if (chunk_size == 0) chunk_size = 1;
  }
  const std::uint64_t begin = chunk * chunk_size;
  const std::uint64_t end = begin + chunk_size < n ? begin + chunk_size : n;
  return {begin, end};
}

void ParallelFor(std::uint64_t n, std::uint64_t chunk_size, const ChunkBody& body) {
  if (n == 0) return;
  const std::uint64_t chunks = NumChunks(n, chunk_size);
  LW_DCHECK(PartitionIsExact(n, chunk_size, chunks))
      << "chunk ranges must partition the input exactly";

  ThreadPool* const pool = t_in_region ? nullptr : GlobalPool();

  auto region = std::make_shared<Region>();
  region->n = n;
  region->chunk_size = chunk_size;
  region->chunks = chunks;
  region->body = &body;
  region->errors.resize(static_cast<std::size_t>(chunks));

  if (pool != nullptr && chunks > 1) {
    // One runner per worker that could usefully participate; each runner
    // claims chunks from the shared counter until the region drains.
    const int runners =
        static_cast<int>(std::min<std::uint64_t>(chunks - 1, pool->threads() - 1));
    pool->Submit(region, runners);
  }
  // The calling thread always participates (and is the whole show in serial
  // or nested mode).
  RunChunks(*region);
  if (region->done.load(std::memory_order_acquire) != chunks) {
    lw::MutexLock lock(region->mu);
    while (region->done.load(std::memory_order_acquire) != chunks) {
      region->cv.Wait(region->mu);
    }
  }

  // Deterministic error propagation: the lowest-indexed chunk failure wins,
  // regardless of execution order.
  for (auto& error : region->errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace lightwave::common::parallel
