// Deterministic random number generation. Every stochastic component in the
// library takes an explicit seed so that benches and tests are reproducible
// bit-for-bit; nothing reads the wall clock or a global generator.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

namespace lightwave::common {

/// xoshiro256++ seeded through splitmix64. Fast, high-quality, and small
/// enough to embed one generator per simulated device.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t NextU64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t UniformInt(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second variate). Serves the
  /// scalar callers: collimator fabrication, the phy Monte-Carlo and
  /// equalizer, camera pixel noise and the fabric survey's population draw.
  double Gaussian();

  /// Normal with given mean / standard deviation.
  double Gaussian(double mean, double stddev);

  /// Two independent standard normals by the Marsaglia polar method: a point
  /// (u, v) uniform in the unit disc, scaled by sqrt(-2 ln s / s) where
  /// s = u^2 + v^2. No trig, and it neither reads nor fills Gaussian()'s
  /// cache. Serves every 2-D mirror
  /// noise draw on an optical core: open-loop actuation, a spare's re-draw,
  /// and the alignment loop's measurement and actuation noise.
  std::pair<double, double> GaussianPair();

  /// Exponential with given rate (events per unit time). Requires rate > 0.
  double Exponential(double rate);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Derives an independent child generator; used to give each simulated
  /// device its own stream without correlation.
  Rng Fork();

  /// Counter-based stream derivation for the parallel runtime: the state
  /// depends only on (seed, stream), so chunk `c` of a parallel region can
  /// build `Stream(seed, c)` with no shared RNG state between chunks — the
  /// results are identical at any thread count. Stream 0 is NOT the same
  /// generator as Rng(seed); a parallel driver either uses streams
  /// everywhere or not at all.
  static Rng Stream(std::uint64_t seed, std::uint64_t stream);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace lightwave::common
