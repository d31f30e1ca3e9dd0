#include "fec/rs_batch.h"

#include <atomic>
#include <cstring>

#include "common/check.h"

// The AVX2 path compiles through a per-function target attribute (no
// -mavx2 on the TU, so nothing outside the attributed functions can emit
// AVX2 instructions) and is only reachable when CPUID reports the feature.
// Other targets and compilers build the portable SWAR path alone.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define LW_RS_BATCH_AVX2 1
#include <immintrin.h>
#else
#define LW_RS_BATCH_AVX2 0
#endif

namespace lightwave::fec::batch {
namespace {

using U16 = std::uint16_t;
using U64 = std::uint64_t;

constexpr int kW = kLaneWidth;
constexpr int kB = kPlaneBits;

// ------------------------------------------------------------------ SWAR --

// 4 symbol lanes per uint64. The per-lane all-ones mask for bit b comes from
// the multiply trick: ((v >> b) & kLaneOnes) puts a 0/1 in each 16-bit lane,
// and * 0xFFFF expands each to 0x0000/0xFFFF — the cross-lane terms
// 2^{16(k+1)} - 2^{16k} occupy exactly lane k, so no carries ever cross a
// lane boundary.
constexpr U64 kLaneOnes = 0x0001000100010001ull;
constexpr int kW64 = kW / 4;

inline U64 Load64(const U16* p) {
  U64 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store64(U16* p, U64 v) { std::memcpy(p, &v, sizeof(v)); }

inline U64 LaneMask(U64 v, int b) { return ((v >> b) & kLaneOnes) * 0xFFFFull; }

void EncodeTileSwar(const U16* data, int k, int parity, const U16* planes,
                    U16* rem) {
  std::memset(rem, 0, static_cast<std::size_t>(parity) * kW * sizeof(U16));
  U64 mask[kW64][kB];
  for (int i = 0; i < k; ++i) {
    const U16* d = data + static_cast<std::size_t>(i) * kW;
    const U16* last = rem + static_cast<std::size_t>(parity - 1) * kW;
    for (int w = 0; w < kW64; ++w) {
      const U64 fb = Load64(d + 4 * w) ^ Load64(last + 4 * w);
      for (int b = 0; b < kB; ++b) mask[w][b] = LaneMask(fb, b);
    }
    for (int j = parity - 1; j > 0; --j) {
      const U16* src = rem + static_cast<std::size_t>(j - 1) * kW;
      U16* dst = rem + static_cast<std::size_t>(j) * kW;
      const U16* p = planes + static_cast<std::size_t>(j) * kB * kW;
      for (int w = 0; w < kW64; ++w) {
        U64 acc = Load64(src + 4 * w);
        for (int b = 0; b < kB; ++b) acc ^= mask[w][b] & Load64(p + b * kW);
        Store64(dst + 4 * w, acc);
      }
    }
    for (int w = 0; w < kW64; ++w) {
      U64 acc = 0;
      for (int b = 0; b < kB; ++b) acc ^= mask[w][b] & Load64(planes + b * kW);
      Store64(rem + 4 * w, acc);
    }
  }
}

void SyndromeTileSwar(const U16* word, int n, int two_t, const U16* planes,
                      U16* syn) {
  for (int j = 0; j < two_t; ++j) {
    const U16* p = planes + static_cast<std::size_t>(j) * kB * kW;
    U64 plane[kB][kW64];
    for (int b = 0; b < kB; ++b) {
      for (int w = 0; w < kW64; ++w) plane[b][w] = Load64(p + b * kW);
    }
    U64 acc[kW64] = {};
    for (int i = 0; i < n; ++i) {
      const U16* r = word + static_cast<std::size_t>(i) * kW;
      for (int w = 0; w < kW64; ++w) {
        U64 t = 0;
        for (int b = 0; b < kB; ++b) t ^= LaneMask(acc[w], b) & plane[b][w];
        acc[w] = t ^ Load64(r + 4 * w);
      }
    }
    for (int w = 0; w < kW64; ++w) Store64(syn + static_cast<std::size_t>(j) * kW + 4 * w, acc[w]);
  }
}

// ------------------------------------------------------------------ AVX2 --

#if LW_RS_BATCH_AVX2

/// Per-lane all-ones mask for bit b of each 16-bit lane: shift the bit to
/// the sign position and arithmetic-shift it back across the lane.
__attribute__((target("avx2"))) inline __m256i LaneMask256(__m256i v, int b) {
  return _mm256_srai_epi16(_mm256_slli_epi16(v, 15 - b), 15);
}

__attribute__((target("avx2"))) void EncodeTileAvx2(const U16* data, int k,
                                                    int parity,
                                                    const U16* planes,
                                                    U16* rem) {
  std::memset(rem, 0, static_cast<std::size_t>(parity) * kW * sizeof(U16));
  for (int i = 0; i < k; ++i) {
    const __m256i fb = _mm256_xor_si256(
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(data + static_cast<std::size_t>(i) * kW)),
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(rem + static_cast<std::size_t>(parity - 1) * kW)));
    __m256i mask[kB];
#pragma GCC unroll 10
    for (int b = 0; b < kB; ++b) mask[b] = LaneMask256(fb, b);
    for (int j = parity - 1; j > 0; --j) {
      const U16* p = planes + static_cast<std::size_t>(j) * kB * kW;
      __m256i acc = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(rem + static_cast<std::size_t>(j - 1) * kW));
#pragma GCC unroll 10
      for (int b = 0; b < kB; ++b) {
        acc = _mm256_xor_si256(
            acc, _mm256_and_si256(mask[b], _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                               p + b * kW))));
      }
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(rem + static_cast<std::size_t>(j) * kW), acc);
    }
    __m256i acc0 = _mm256_setzero_si256();
#pragma GCC unroll 10
    for (int b = 0; b < kB; ++b) {
      acc0 = _mm256_xor_si256(
          acc0, _mm256_and_si256(mask[b], _mm256_loadu_si256(
                                              reinterpret_cast<const __m256i*>(planes + b * kW))));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(rem), acc0);
  }
}

__attribute__((target("avx2"))) void SyndromeTileAvx2(const U16* word, int n,
                                                      int two_t,
                                                      const U16* planes,
                                                      U16* syn) {
  for (int j = 0; j < two_t; ++j) {
    const U16* p = planes + static_cast<std::size_t>(j) * kB * kW;
    __m256i plane[kB];
#pragma GCC unroll 10
    for (int b = 0; b < kB; ++b) {
      plane[b] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + b * kW));
    }
    __m256i acc = _mm256_setzero_si256();
    for (int i = 0; i < n; ++i) {
      __m256i t = _mm256_setzero_si256();
#pragma GCC unroll 10
      for (int b = 0; b < kB; ++b) {
        t = _mm256_xor_si256(t, _mm256_and_si256(LaneMask256(acc, b), plane[b]));
      }
      acc = _mm256_xor_si256(
          t, _mm256_loadu_si256(
                 reinterpret_cast<const __m256i*>(word + static_cast<std::size_t>(i) * kW)));
    }
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(syn + static_cast<std::size_t>(j) * kW), acc);
  }
}

#endif  // LW_RS_BATCH_AVX2

// -------------------------------------------------------------- dispatch --

/// -1 = no Force() override; otherwise the forced Dispatch value.
std::atomic<int> g_forced{-1};

}  // namespace

const char* Name(Dispatch dispatch) {
  switch (dispatch) {
    case Dispatch::kSwar: return "swar";
    case Dispatch::kAvx2: return "avx2";
  }
  return "unknown";
}

bool Supported(Dispatch dispatch) {
  switch (dispatch) {
    case Dispatch::kSwar:
      return true;
    case Dispatch::kAvx2:
#if LW_RS_BATCH_AVX2
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

Dispatch Active() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Dispatch>(forced);
  static const Dispatch automatic =
      Supported(Dispatch::kAvx2) ? Dispatch::kAvx2 : Dispatch::kSwar;
  return automatic;
}

void Force(Dispatch dispatch) {
  LW_CHECK(Supported(dispatch)) << "cannot force unsupported dispatch "
                                << Name(dispatch);
  g_forced.store(static_cast<int>(dispatch), std::memory_order_relaxed);
}

void ResetDispatch() { g_forced.store(-1, std::memory_order_relaxed); }

void EncodeTile(const U16* data_tile, int k, int parity, const U16* planes,
                U16* rem_tile) {
#if LW_RS_BATCH_AVX2
  if (Active() == Dispatch::kAvx2) {
    EncodeTileAvx2(data_tile, k, parity, planes, rem_tile);
    return;
  }
#endif
  EncodeTileSwar(data_tile, k, parity, planes, rem_tile);
}

void SyndromeTile(const U16* word_tile, int n, int two_t, const U16* planes,
                  U16* syn_tile) {
#if LW_RS_BATCH_AVX2
  if (Active() == Dispatch::kAvx2) {
    SyndromeTileAvx2(word_tile, n, two_t, planes, syn_tile);
    return;
  }
#endif
  SyndromeTileSwar(word_tile, n, two_t, planes, syn_tile);
}

}  // namespace lightwave::fec::batch
