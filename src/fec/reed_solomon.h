// Systematic Reed-Solomon codec over GF(2^10). The KP4 instance RS(544,514)
// corrects up to t = 15 symbol errors per 544-symbol codeword and is the
// outer code of every link in the fabric; its 2e-4 pre-FEC BER threshold is
// the figure of merit used throughout §4.1.
//
// Decoder: syndrome computation, Berlekamp-Massey, Chien search, Forney.
//
// Hot-kernel design (this codec sits under every BER→FEC evaluation the
// Monte-Carlo harness runs):
//   - EncodeInto/DecodeInPlace are span-based and allocation-free; the
//     decoder's Berlekamp-Massey/Chien/Forney working set lives in a
//     caller-owned Scratch that amortizes to zero allocations when reused
//     (one Scratch per worker thread under the parallel runtime).
//   - Syndromes use premultiplied alpha^j rows (Gf1024::MulRow): one
//     branch-free table read per symbol instead of two log/exp lookups
//     plus zero checks.
//   - The encoder's LFSR feedback multiply is flattened into the log
//     domain: the generator coefficients are stored as logs, so each inner
//     step is a single exp-table read.
// The std::vector convenience wrappers delegate to the span kernels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "fec/gf.h"
#include "fec/rs_batch.h"

namespace lightwave::fec {

struct DecodeOutcome {
  std::vector<Gf1024::Element> codeword;  // corrected, length n
  int corrected_symbols = 0;
};

class ReedSolomon {
 public:
  using Element = Gf1024::Element;

  /// Reusable decoder workspace. All buffers keep their capacity across
  /// calls, so a reused Scratch makes DecodeInPlace allocation-free in
  /// steady state. A Scratch is not thread-safe; give each worker its own.
  class Scratch {
   public:
    Scratch() = default;

   private:
    friend class ReedSolomon;
    std::vector<Element> syndromes;
    std::vector<Element> sigma;
    std::vector<Element> prev;
    std::vector<Element> temp;
    std::vector<Element> omega;
    std::vector<Element> sigma_prime;
    std::vector<int> positions;
  };

  /// Reusable workspace for the batch kernels: the SoA staging tiles plus a
  /// scalar Scratch for per-lane slow paths. Buffers keep their capacity, so
  /// a reused BatchScratch makes the batch calls allocation-free in steady
  /// state. Not thread-safe; give each worker its own.
  class BatchScratch {
   public:
    BatchScratch() = default;

   private:
    friend class ReedSolomon;
    std::vector<Element> tile;      // SoA staging: up to n rows of kLaneWidth
    std::vector<Element> rem_tile;  // (n - k) remainder rows
    std::vector<Element> syn_tile;  // (n - k) syndrome rows
    Scratch scalar;
  };

  /// DecodeMany's per-word result for a word whose decode failed
  /// (uncorrectable pattern or invalid symbols); treat such a word's
  /// content as unspecified, exactly like a failed DecodeInPlace.
  static constexpr int kDecodeFailed = -1;

  /// n = total symbols, k = data symbols; (n - k) must be even.
  ReedSolomon(int n, int k);

  /// The KP4 code of IEEE 802.3: RS(544, 514), t = 15.
  static ReedSolomon Kp4() { return ReedSolomon(544, 514); }

  int n() const { return n_; }
  int k() const { return k_; }
  int t() const { return (n_ - k_) / 2; }

  /// Systematic encode into a caller-provided buffer: codeword = data
  /// followed by (n-k) parity symbols. Requires data.size() == k,
  /// codeword.size() == n, and every symbol < 1024. codeword[0..k) may
  /// alias data. Never allocates.
  void EncodeInto(std::span<const Element> data, std::span<Element> codeword) const;

  /// Systematic encode: returns data followed by (n-k) parity symbols.
  /// Requires data.size() == k and every symbol < 1024.
  std::vector<Gf1024::Element> Encode(const std::vector<Gf1024::Element>& data) const;

  /// Batch encode, bit-exact with EncodeInto on every word: `data` holds
  /// `count` codeword-major blocks of k symbols, `codewords` receives
  /// `count` blocks of n (so count = data.size() / k). Full
  /// batch::kLaneWidth tiles go through the vectorized SoA kernels; the
  /// ragged tail uses the scalar kernel. `data` must not overlap
  /// `codewords`.
  void EncodeMany(std::span<const Element> data, std::span<Element> codewords,
                  BatchScratch& scratch) const;

  /// Batch decode-and-correct in place: `words` holds count =
  /// words.size() / n received words; corrected[w] receives the corrected
  /// symbol count, or kDecodeFailed where DecodeInPlace would have failed.
  /// The syndrome sweep runs vectorized over SoA tiles; words with nonzero
  /// syndromes fall back per lane to the scalar Berlekamp-Massey path (fed
  /// the already-computed syndromes). Bit-exact with per-word DecodeInPlace:
  /// same corrected counts, same final word bytes, including after failures.
  void DecodeMany(std::span<Element> words, std::span<int> corrected,
                  BatchScratch& scratch) const;

  /// Decodes and corrects `word` (length n) in place using `scratch` for
  /// all intermediate state; returns the number of corrected symbols.
  /// Rejects words with out-of-field symbols (>= 1024). Fails when more
  /// than t symbols are corrupted, leaving `word` with the partial
  /// correction undone only on the verification path — treat `word` as
  /// unspecified after a failure.
  common::Result<int> DecodeInPlace(std::span<Element> word, Scratch& scratch) const;

  /// Decodes a received word of length n. Fails when more than t symbols are
  /// corrupted (decoder detects an uncorrectable pattern) — note that, as
  /// with any bounded-distance decoder, patterns beyond t can occasionally
  /// miscorrect instead of failing.
  common::Result<DecodeOutcome> Decode(const std::vector<Gf1024::Element>& received) const;

  /// Errors-and-erasures decoding: `erasures` are positions whose symbols
  /// are known unreliable (e.g. flagged by the inner decoder). Corrects any
  /// pattern of e errors and f erasures with 2e + f <= 2t — up to 2t = 30
  /// pure erasures for KP4.
  common::Result<DecodeOutcome> DecodeWithErasures(
      const std::vector<Gf1024::Element>& received, const std::vector<int>& erasures) const;

  /// True when `word` is a valid codeword (all syndromes zero).
  bool IsCodeword(const std::vector<Gf1024::Element>& word) const;

 private:
  int n_;
  int k_;
  std::vector<Element> generator_;  // generator polynomial, low->high
  /// Log-domain generator coefficients for the flattened encoder multiply;
  /// only valid when generator_has_zero_ is false (never for KP4-like
  /// codes, but a degenerate generator falls back to Gf1024::Mul).
  std::vector<int> generator_log_;
  bool generator_has_zero_ = false;
  /// syndrome_rows_[j - 1][x] == Mul(alpha^j, x) for j = 1..2t.
  std::vector<Gf1024::MulRow> syndrome_rows_;
  /// Pre-broadcast bit-plane tables for the batch kernels (fec/rs_batch.h):
  /// encoder_planes_[((j * kPlaneBits) + b) * kLaneWidth + lane] ==
  /// Mul(generator_[j], 1 << b) repeated across lanes; syndrome_planes_
  /// likewise for alpha^{j+1}, j in [0, 2t).
  std::vector<Element> encoder_planes_;
  std::vector<Element> syndrome_planes_;

  /// out.size() == n - k. Requires every symbol of `received` < 1024.
  void SyndromesInto(std::span<const Element> received, std::span<Element> out) const;
  std::vector<Gf1024::Element> Syndromes(const std::vector<Gf1024::Element>& received) const;

  /// The decoder tail shared by DecodeInPlace and the batch slow path:
  /// expects s.syndromes already filled for `word` (however they were
  /// computed) and `word` pre-validated; runs the all-zero early-out then
  /// Berlekamp-Massey / Chien / Forney.
  common::Result<int> DecodeWithComputedSyndromes(std::span<Element> word,
                                                  Scratch& s) const;
};

}  // namespace lightwave::fec
