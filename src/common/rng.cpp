#include "common/rng.h"

#include <cmath>
#include <numbers>

namespace lightwave::common {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = SplitMix64(s);
}

std::uint64_t Rng::NextU64() {
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

double Rng::NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::Gaussian(double mean, double stddev) { return mean + stddev * Gaussian(); }

std::pair<double, double> Rng::GaussianPair() {
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double scale = std::sqrt(-2.0 * std::log(s) / s);
  return {u * scale, v * scale};
}

double Rng::Exponential(double rate) {
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(NextU64()); }

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
