#include "common/rng.h"

#include <cmath>

namespace lightwave::common {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace detail {

ZigguratTables::ZigguratTables() {
  // Doornik's construction: every layer above the base, [0, x[i - 1]) at
  // heights f(x[i - 1])..f(x[i]), has area V, which fixes x[i] from the
  // layer below.
  const auto density = [](double at) { return std::exp(-0.5 * at * at); };
  x[0] = kV / density(kR);
  x[1] = kR;
  for (int i = 2; i < kLayers; ++i) {
    x[i] = std::sqrt(-2.0 * std::log(kV / x[i - 1] + density(x[i - 1])));
  }
  x[kLayers] = 0.0;
  for (int i = 0; i <= kLayers; ++i) f[i] = density(x[i]);
  for (int i = 0; i < kLayers; ++i) ratio[i] = x[i + 1] / x[i];
}

}  // namespace detail

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = SplitMix64(s);
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

double Rng::ZigguratEdge(std::size_t layer, double u) {
  if (layer == 0) {
    // Marsaglia's tail sampler: R + t with t ~ Exp(R) has the normal's
    // density beyond R once it survives the test, e ~ Exp(1) above t^2 / 2.
    constexpr double kR = detail::ZigguratTables::kR;
    double t = 0.0, e = 0.0;
    do {
      t = Exponential(kR);
      e = Exponential(1.0);
    } while (e + e < t * t);
    return u < 0.0 ? -(kR + t) : kR + t;
  }
  // The wedge: a height uniform over the layer's band, kept if it lies
  // under the curve at x; otherwise a fresh attempt.
  const detail::ZigguratTables& zig = detail::Ziggurat();
  const double x = u * zig.x[layer];
  const double height = zig.f[layer + 1] + NextDouble() * (zig.f[layer] - zig.f[layer + 1]);
  if (height < std::exp(-0.5 * x * x)) return x;
  return Gaussian();
}

double Rng::Exponential(double rate) {
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

Rng Rng::Stream(std::uint64_t seed, std::uint64_t stream) {
  // Two splitmix rounds over the (seed, stream) pair decorrelate adjacent
  // streams; the resulting 64-bit value seeds the regular constructor.
  std::uint64_t x = seed;
  std::uint64_t mixed = SplitMix64(x);
  x = mixed ^ (stream + 0x9E3779B97F4A7C15ull);
  mixed = SplitMix64(x);
  return Rng(mixed);
}

}  // namespace lightwave::common
