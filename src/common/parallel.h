// Deterministic parallel runtime for the Monte-Carlo evaluation harness.
//
// The simulator's dominant workloads — the Fig. 13 pod-wide BER survey, the
// Fig. 11 OIM Monte-Carlo sweep, the Fig. 15 availability fleets, the
// Fig. 10 loss survey — are embarrassingly parallel, but EXPERIMENTS.md
// promises fixed-seed reproducibility. This runtime squares the two:
//
//   * Work over [0, n) is split into chunks whose boundaries depend ONLY on
//     (n, chunk_size), never on the thread count or scheduling order.
//   * Each chunk is identified by its index; stochastic chunk bodies derive
//     an independent counter-based stream via common::Rng::Stream(seed,
//     chunk_index), so no RNG state crosses a chunk boundary.
//   * Reductions fold per-chunk partials in ascending chunk order on the
//     calling thread.
//
// Together these make every result byte-identical across thread counts
// (including 1) and across runs. The thread count is a runtime knob:
// LIGHTWAVE_THREADS in the environment (default: hardware concurrency;
// "1" restores fully serial execution), or SetThreads() from code.
//
// Exceptions thrown by chunk bodies are captured per chunk and the lowest-
// indexed one is rethrown on the calling thread — again deterministic.
// Nested ParallelFor calls (a chunk body that itself calls ParallelFor) are
// detected via a thread-local guard and run serially inline with identical
// chunk boundaries, so nesting is safe and changes nothing numerically.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace lightwave::common::parallel {

/// Chunk body: half-open index range [begin, end) plus the chunk index the
/// range occupies in the deterministic partition of [0, n).
using ChunkBody =
    std::function<void(std::uint64_t begin, std::uint64_t end, std::uint64_t chunk)>;

/// Configured worker count of the process-wide pool: the last SetThreads
/// value, else LIGHTWAVE_THREADS when set (clamped to >= 1), otherwise
/// hardware concurrency. 1 means fully serial execution on the calling
/// thread.
int Threads();

/// Reconfigures the process-wide pool (joins existing workers first); the
/// count holds until the next call, so SetThreads(1) runs every region on
/// its calling thread. Used by tests to prove thread-count invariance and
/// by embedders as a runtime knob. Must not be called from inside a
/// parallel region.
void SetThreads(int threads);

/// Number of chunks the deterministic partition of [0, n) produces for a
/// given chunk size. Pure in (n, chunk_size); chunk_size == 0 selects the
/// automatic policy (at most kDefaultMaxChunks chunks).
std::uint64_t NumChunks(std::uint64_t n, std::uint64_t chunk_size);

/// The half-open range of chunk `chunk` in that partition.
std::pair<std::uint64_t, std::uint64_t> ChunkBounds(std::uint64_t n,
                                                    std::uint64_t chunk_size,
                                                    std::uint64_t chunk);

/// Automatic chunking bound: auto mode never produces more chunks than this
/// (keeps per-chunk scheduling overhead negligible while still feeding wide
/// machines). Fixed so partitions are machine-independent.
inline constexpr std::uint64_t kDefaultMaxChunks = 256;

/// Runs `body` over every chunk of [0, n). Chunks execute concurrently on
/// the process-wide pool (the calling thread participates); results must
/// only depend on the chunk's own range and index. Rethrows the lowest-
/// indexed chunk exception after all chunks finish.
void ParallelFor(std::uint64_t n, std::uint64_t chunk_size, const ChunkBody& body);

/// Per-index map with deterministic output order: out[i] = fn(i).
template <typename Fn>
auto ParallelMap(std::uint64_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::uint64_t{0}))> {
  using R = decltype(fn(std::uint64_t{0}));
  std::vector<R> out(static_cast<std::size_t>(n));
  ParallelFor(n, 1,
              [&](std::uint64_t begin, std::uint64_t end, std::uint64_t /*chunk*/) {
                for (std::uint64_t i = begin; i < end; ++i) {
                  out[static_cast<std::size_t>(i)] = fn(i);
                }
              });
  return out;
}

/// Chunked reduction: `chunk_fn(begin, end, chunk) -> T` computes a partial
/// per chunk; partials are combined left-to-right in chunk order on the
/// calling thread, so the result is independent of scheduling.
template <typename T, typename ChunkFn, typename Combine>
T ParallelReduce(std::uint64_t n, std::uint64_t chunk_size, T init, ChunkFn&& chunk_fn,
                 Combine&& combine) {
  const std::uint64_t chunks = NumChunks(n, chunk_size);
  std::vector<T> partials(static_cast<std::size_t>(chunks));
  ParallelFor(n, chunk_size,
              [&](std::uint64_t begin, std::uint64_t end, std::uint64_t chunk) {
                partials[static_cast<std::size_t>(chunk)] = chunk_fn(begin, end, chunk);
              });
  T acc = std::move(init);
  for (auto& partial : partials) acc = combine(std::move(acc), std::move(partial));
  return acc;
}

}  // namespace lightwave::common::parallel
