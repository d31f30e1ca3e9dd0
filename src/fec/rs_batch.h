// Vectorized batch kernels for the Reed-Solomon codec: the two GF(2^10)
// inner loops that dominate every Monte-Carlo FEC evaluation — the encoder
// LFSR and the Horner syndrome sweep — over kLaneWidth codewords in
// lockstep.
//
// Layout. Kernels consume a structure-of-arrays tile: symbol i of lane l
// lives at tile[i * kLaneWidth + l], so one SIMD register holds symbol i of
// every codeword in the batch. Constant multiplies use the bit-plane
// decomposition (Gf1024::MulPlanes): Mul(c, x) == XOR over the set bits b
// of x of Mul(c, 1 << b), evaluated as kBits mask-and-XOR steps per
// register — no gathers, no per-lane table walks. Plane tables arrive
// pre-broadcast (each plane value repeated kLaneWidth times) so vector
// paths load them straight from memory.
//
// Dispatch. Two bit-exact implementations, chosen from the CPU alone:
//   - kSwar    SIMD-within-a-register over uint64_t, 4 lanes per word;
//              portable C++, the path on a CPU without AVX2 and in every
//              non-x86 build
//   - kAvx2    256-bit path, all 16 lanes per register; compiled via a
//              target attribute and selected only when CPUID reports AVX2
// The choice is made once per process. Both paths compute identical bits —
// GF arithmetic is exact, so the dispatch choice can never change a result,
// only its speed; the per-word ReedSolomon kernels are the reference the
// tests hold both against. Force() pins a path for tests.
#pragma once

#include <cstdint>

namespace lightwave::fec::batch {

/// Codewords per tile. Fixed (not dispatch-dependent) so the SoA layout,
/// chunking, and results are identical on every machine: 16 lanes is one
/// AVX2 register of 10-bit symbols; the SWAR path covers it as 4 uint64
/// words.
inline constexpr int kLaneWidth = 16;

/// Bit planes per constant multiply — GF(2^10) symbols. Mirrors
/// Gf1024::kBits (static_asserted where the tables are built); kept literal
/// here so this header stays free of the field-table machinery.
inline constexpr int kPlaneBits = 10;

enum class Dispatch {
  kSwar,
  kAvx2,
};

const char* Name(Dispatch dispatch);

/// True when `dispatch` can run on this build + CPU (kSwar always; kAvx2
/// only in an x86 GCC/Clang build on a CPU whose CPUID reports AVX2).
bool Supported(Dispatch dispatch);

/// The active implementation: a Force() override if set, else kAvx2 when
/// Supported, else kSwar.
Dispatch Active();

/// Pins the dispatch path (tests proving cross-path bit-exactness).
/// LW_CHECKs that `dispatch` is Supported().
void Force(Dispatch dispatch);

/// Clears a Force() override, returning to automatic selection.
void ResetDispatch();

/// Full LFSR division over a tile: data_tile is k SoA rows of data symbols,
/// planes is the generator bit-plane table laid out
/// planes[((j * kBits) + b) * kLaneWidth + lane] == Mul(g_j, 1 << b)
/// (broadcast across lanes), and rem_tile receives the `parity` remainder
/// rows in low->high coefficient order. Bit-exact with
/// ReedSolomon::EncodeInto on every lane.
void EncodeTile(const std::uint16_t* data_tile, int k, int parity,
                const std::uint16_t* planes, std::uint16_t* rem_tile);

/// Horner syndrome sweep over a tile: word_tile is n SoA rows of received
/// symbols, planes holds the alpha^{j+1} bit-plane rows
/// planes[((j * kBits) + b) * kLaneWidth + lane] == Mul(alpha^{j+1}, 1 << b)
/// for j in [0, two_t), and syn_tile receives the two_t syndrome rows.
/// Bit-exact with ReedSolomon's scalar syndrome kernel on every lane.
void SyndromeTile(const std::uint16_t* word_tile, int n, int two_t,
                  const std::uint16_t* planes, std::uint16_t* syn_tile);

}  // namespace lightwave::fec::batch
