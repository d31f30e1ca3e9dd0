// Deterministic random number generation. Every stochastic component in the
// library takes an explicit seed so that benches and tests are reproducible
// bit-for-bit; nothing reads the wall clock or a global generator.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace lightwave::common {

/// One splitmix64 step (Vigna): advances `state` by the golden-ratio gamma
/// and returns a full-avalanche mix of it. It seeds Rng and Rng::Stream and
/// hashes the fleet router's ring points; the constants are fixed, so every
/// use is stable across runs and processes.
std::uint64_t SplitMix64(std::uint64_t& state);

namespace detail {

/// Marsaglia-Tsang (2000) Ziggurat for the standard normal in Doornik's
/// (2005) ZIGNOR form: 128 layers of equal area V under f(x) = exp(-x^2/2),
/// the base layer holding the rectangle [0, R) plus the tail beyond R.
/// Built once on first use and read-only after, so every generator on every
/// thread shares one copy without a lock.
struct ZigguratTables {
  static constexpr int kLayers = 128;
  static constexpr double kR = 3.442619855899;       // where the tail starts
  static constexpr double kV = 9.91256303526217e-3;  // area of each layer

  ZigguratTables();

  /// Layer i spans [0, x[i]) at heights f(x[i])..f(x[i + 1]); x[0] = V / f(R)
  /// is the base layer's width, x[1] = R and x[kLayers] = 0.
  std::array<double, kLayers + 1> x{};
  std::array<double, kLayers + 1> f{};  // f(x[i])
  /// x[i + 1] / x[i]: a point of layer i with |u| below it lies under the
  /// curve whatever its height.
  std::array<double, kLayers> ratio{};
};

inline const ZigguratTables& Ziggurat() {
  static const ZigguratTables tables;
  return tables;
}

}  // namespace detail

/// xoshiro256++ seeded through splitmix64. Fast, high-quality, and small
/// enough to embed one generator per simulated device.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t UniformInt(std::uint64_t n);

  /// Standard normal by the Ziggurat (detail::ZigguratTables), the one
  /// normal sampler: the phy Monte-Carlo and equalizer, collimator
  /// fabrication, camera pixel noise and the fabric survey draw one at a
  /// time, and each 2-D mirror-noise draw on an optical core is two calls,
  /// x then y. No variate is cached, so a copied generator carries only its
  /// four state words.
  ///
  /// Each attempt reads one NextU64() word w: the layer is its low 7 bits
  /// and the signed uniform u = 2 (w >> 11) 2^-53 - 1 in [-1, 1) its top 53
  /// bits, so the two never share a bit (Doornik's fix for the original's
  /// overlap). |u| < ratio[layer] returns u * x[layer] (97.2% of draws);
  /// else the base layer goes to Marsaglia's tail sampler beyond R, and any
  /// other layer takes the exact wedge test (one NextDouble(), one exp). A
  /// rejected attempt (1.2% of them) starts a new one.
  double Gaussian() {
    const detail::ZigguratTables& zig = detail::Ziggurat();
    const std::uint64_t w = NextU64();
    const auto layer = static_cast<std::size_t>(w & 0x7F);
    const double u = 2.0 * (static_cast<double>(w >> 11) * 0x1.0p-53) - 1.0;
    if (std::abs(u) < zig.ratio[layer]) return u * zig.x[layer];
    return ZigguratEdge(layer, u);
  }

  /// Normal with given mean / standard deviation.
  double Gaussian(double mean, double stddev) { return mean + stddev * Gaussian(); }

  /// Exponential with given rate (events per unit time). Requires rate > 0.
  double Exponential(double rate);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Counter-based stream derivation for the parallel runtime: the state
  /// depends only on (seed, stream), so chunk `c` of a parallel region can
  /// build `Stream(seed, c)` with no shared RNG state between chunks — the
  /// results are identical at any thread count. Stream 0 is NOT the same
  /// generator as Rng(seed); a parallel driver either uses streams
  /// everywhere or not at all.
  static Rng Stream(std::uint64_t seed, std::uint64_t stream);

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  /// The attempt (layer, u) missed its layer's rectangle: the tail or the
  /// wedge test, then fresh attempts until one is accepted.
  double ZigguratEdge(std::size_t layer, double u);

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace lightwave::common
