#include "fec/reed_solomon.h"

#include <algorithm>
#include <cassert>

#include "common/check.h"

namespace lightwave::fec {

using Element = Gf1024::Element;

namespace {

bool AllInField(std::span<const Element> word) {
  return std::all_of(word.begin(), word.end(),
                     [](Element s) { return s < Gf1024::kFieldSize; });
}

}  // namespace

ReedSolomon::ReedSolomon(int n, int k) : n_(n), k_(k) {
  assert(n > k && k > 0 && n <= Gf1024::kGroupOrder);
  assert((n - k) % 2 == 0);
  const auto& gf = Gf1024::Instance();
  // generator(x) = prod_{i=1}^{2t} (x - alpha^i), conventional first root
  // alpha^1.
  generator_ = {1};
  const int parity = n - k;
  for (int i = 1; i <= parity; ++i) {
    const Element root = gf.AlphaPow(i);
    std::vector<Element> next(generator_.size() + 1, 0);
    for (std::size_t j = 0; j < generator_.size(); ++j) {
      // Multiply by (x + root) (== (x - root) in GF(2^m)).
      next[j + 1] ^= generator_[j];
      next[j] ^= gf.Mul(generator_[j], root);
    }
    generator_ = std::move(next);
  }
  // Log-domain copy for the flattened encoder multiply.
  generator_log_.resize(generator_.size(), 0);
  for (std::size_t j = 0; j < generator_.size(); ++j) {
    if (generator_[j] == 0) {
      generator_has_zero_ = true;
      generator_log_[j] = -1;
    } else {
      generator_log_[j] = gf.Log(generator_[j]);
    }
  }
  // Premultiplied alpha^j rows for the syndrome kernel.
  syndrome_rows_.resize(static_cast<std::size_t>(parity));
  for (int j = 1; j <= parity; ++j) {
    gf.BuildMulRow(gf.AlphaPow(j), syndrome_rows_[static_cast<std::size_t>(j - 1)]);
  }
  // Pre-broadcast bit-plane tables for the batch kernels: every plane value
  // is repeated kLaneWidth times so the vector paths read whole registers
  // straight from memory.
  static_assert(batch::kPlaneBits == Gf1024::kBits);
  const int lanes = batch::kLaneWidth;
  const int bits = batch::kPlaneBits;
  Gf1024::MulPlanes planes;
  encoder_planes_.resize(static_cast<std::size_t>(parity) * bits * lanes);
  for (int j = 0; j < parity; ++j) {
    gf.BuildMulPlanes(generator_[static_cast<std::size_t>(j)], planes);
    for (int b = 0; b < bits; ++b) {
      Element* row = encoder_planes_.data() +
                     (static_cast<std::size_t>(j) * bits + static_cast<std::size_t>(b)) * lanes;
      std::fill(row, row + lanes, planes[static_cast<std::size_t>(b)]);
    }
  }
  syndrome_planes_.resize(static_cast<std::size_t>(parity) * bits * lanes);
  for (int j = 0; j < parity; ++j) {
    gf.BuildMulPlanes(gf.AlphaPow(j + 1), planes);
    for (int b = 0; b < bits; ++b) {
      Element* row = syndrome_planes_.data() +
                     (static_cast<std::size_t>(j) * bits + static_cast<std::size_t>(b)) * lanes;
      std::fill(row, row + lanes, planes[static_cast<std::size_t>(b)]);
    }
  }
}

void ReedSolomon::EncodeInto(std::span<const Element> data,
                             std::span<Element> codeword) const {
  LW_CHECK(static_cast<int>(data.size()) == k_) << "data length != k";
  LW_CHECK(static_cast<int>(codeword.size()) == n_) << "codeword length != n";
  LW_DCHECK(AllInField(data)) << "data symbol outside GF(2^10)";
  const auto& gf = Gf1024::Instance();
  const int parity = n_ - k_;
  // LFSR division: remainder of data(x) * x^(n-k) by generator(x). The
  // remainder lives in the parity tail of the codeword (low->high) and is
  // reversed at the end so the codeword reads highest-degree first.
  Element* const rem = codeword.data() + k_;
  std::fill(rem, rem + parity, static_cast<Element>(0));
  for (int i = 0; i < k_; ++i) {
    const Element feedback =
        static_cast<Element>(data[static_cast<std::size_t>(i)] ^ rem[parity - 1]);
    if (feedback != 0 && !generator_has_zero_) {
      // Flattened log-domain multiply: one exp read per tap.
      const int lf = gf.Log(feedback);
      for (int j = parity - 1; j > 0; --j) {
        rem[j] = static_cast<Element>(rem[j - 1] ^ gf.ExpAt(lf + generator_log_[j]));
      }
      rem[0] = gf.ExpAt(lf + generator_log_[0]);
    } else if (feedback != 0) {
      // Degenerate generator with a zero coefficient: general path.
      for (int j = parity - 1; j > 0; --j) {
        rem[j] = static_cast<Element>(
            rem[j - 1] ^ gf.Mul(feedback, generator_[static_cast<std::size_t>(j)]));
      }
      rem[0] = gf.Mul(feedback, generator_[0]);
    } else {
      for (int j = parity - 1; j > 0; --j) rem[j] = rem[j - 1];
      rem[0] = 0;
    }
  }
  std::reverse(rem, rem + parity);
  if (codeword.data() != data.data()) {
    std::copy(data.begin(), data.end(), codeword.begin());
  }
}

std::vector<Element> ReedSolomon::Encode(const std::vector<Element>& data) const {
  std::vector<Element> codeword(static_cast<std::size_t>(n_));
  EncodeInto(data, codeword);
  return codeword;
}

void ReedSolomon::SyndromesInto(std::span<const Element> received,
                                std::span<Element> out) const {
  const int parity = n_ - k_;
  LW_DCHECK(static_cast<int>(received.size()) == n_);
  LW_DCHECK(static_cast<int>(out.size()) == parity);
  // The codeword as a polynomial has its first symbol as the highest-degree
  // coefficient: c(x) = sum received[i] * x^(n-1-i). S_j = c(alpha^j),
  // evaluated by Horner with the premultiplied alpha^j row: one branch-free
  // table read per symbol.
  const Element* const r = received.data();
  for (int j = 0; j < parity; ++j) {
    const Gf1024::MulRow& row = syndrome_rows_[static_cast<std::size_t>(j)];
    Element acc = 0;
    for (int i = 0; i < n_; ++i) {
      acc = static_cast<Element>(row[acc] ^ r[i]);
    }
    out[static_cast<std::size_t>(j)] = acc;
  }
}

std::vector<Element> ReedSolomon::Syndromes(const std::vector<Element>& received) const {
  std::vector<Element> syndromes(static_cast<std::size_t>(n_ - k_), 0);
  SyndromesInto(received, syndromes);
  return syndromes;
}

bool ReedSolomon::IsCodeword(const std::vector<Element>& word) const {
  if (static_cast<int>(word.size()) != n_) return false;
  if (!AllInField(word)) return false;
  const auto syn = Syndromes(word);
  return std::all_of(syn.begin(), syn.end(), [](Element s) { return s == 0; });
}

common::Result<int> ReedSolomon::DecodeInPlace(std::span<Element> word,
                                               Scratch& s) const {
  if (static_cast<int>(word.size()) != n_) {
    return common::InvalidArgument("received word length != n");
  }
  if (!AllInField(word)) {
    return common::InvalidArgument("received symbol outside GF(1024)");
  }
  s.syndromes.resize(static_cast<std::size_t>(n_ - k_));
  SyndromesInto(word, s.syndromes);
  return DecodeWithComputedSyndromes(word, s);
}

common::Result<int> ReedSolomon::DecodeWithComputedSyndromes(std::span<Element> word,
                                                             Scratch& s) const {
  const auto& gf = Gf1024::Instance();
  const int two_t = n_ - k_;
  const auto& syndromes = s.syndromes;
  if (std::all_of(syndromes.begin(), syndromes.end(), [](Element x) { return x == 0; })) {
    return 0;
  }

  // Berlekamp-Massey: find the error-locator polynomial sigma(x). All
  // polynomial buffers come from the scratch; resize() reuses their
  // retained capacity, so the loop does no per-iteration allocation.
  auto& sigma = s.sigma;
  auto& prev = s.prev;
  auto& temp = s.temp;
  sigma.assign(1, 1);
  prev.assign(1, 1);
  Element prev_discrepancy = 1;
  int m = 1;
  int errors = 0;  // current LFSR length L
  for (int i = 0; i < two_t; ++i) {
    // Discrepancy d = S_i + sum_{j=1}^{L} sigma_j * S_{i-j}.
    Element d = syndromes[static_cast<std::size_t>(i)];
    for (int j = 1; j <= errors && j < static_cast<int>(sigma.size()); ++j) {
      if (i - j >= 0) {
        d = static_cast<Element>(
            d ^ gf.Mul(sigma[static_cast<std::size_t>(j)],
                       syndromes[static_cast<std::size_t>(i - j)]));
      }
    }
    if (d == 0) {
      ++m;
      continue;
    }
    const Element coef = gf.Div(d, prev_discrepancy);
    const std::size_t needed = prev.size() + static_cast<std::size_t>(m);
    if (2 * errors <= i) {
      // sigma' = sigma - (d/prev_d) * x^m * prev, with prev <- old sigma.
      temp.assign(sigma.begin(), sigma.end());
      if (needed > sigma.size()) sigma.resize(needed, 0);
      for (std::size_t j = 0; j < prev.size(); ++j) {
        sigma[j + static_cast<std::size_t>(m)] ^= gf.Mul(coef, prev[j]);
      }
      errors = i + 1 - errors;
      std::swap(prev, temp);
      prev_discrepancy = d;
      m = 1;
    } else {
      if (needed > sigma.size()) sigma.resize(needed, 0);
      for (std::size_t j = 0; j < prev.size(); ++j) {
        sigma[j + static_cast<std::size_t>(m)] ^= gf.Mul(coef, prev[j]);
      }
      ++m;
    }
  }
  while (!sigma.empty() && sigma.back() == 0) sigma.pop_back();
  const int num_errors = static_cast<int>(sigma.size()) - 1;
  if (num_errors <= 0 || num_errors > t()) {
    return common::Internal("uncorrectable: error count exceeds t");
  }

  // Chien search over positions. Symbol word[i] has polynomial degree
  // n-1-i; an error at degree e corresponds to locator root alpha^{-e}.
  auto& error_positions = s.positions;  // index into `word`
  error_positions.clear();
  for (int i = 0; i < n_; ++i) {
    const int degree = n_ - 1 - i;
    const Element x_inv = gf.AlphaPow(-degree);  // evaluate sigma(alpha^{-e})
    Element acc = 0;
    for (int j = static_cast<int>(sigma.size()) - 1; j >= 0; --j) {
      acc = static_cast<Element>(gf.Mul(acc, x_inv) ^ sigma[static_cast<std::size_t>(j)]);
    }
    if (acc == 0) error_positions.push_back(i);
  }
  if (static_cast<int>(error_positions.size()) != num_errors) {
    return common::Internal("uncorrectable: locator roots != degree");
  }

  // Forney: error values. Error evaluator omega(x) = [S(x) * sigma(x)]
  // mod x^{2t}, with S(x) = sum S_{j+1} x^j.
  auto& omega = s.omega;
  omega.assign(static_cast<std::size_t>(two_t), 0);
  for (std::size_t i = 0; i < omega.size(); ++i) {
    Element acc = 0;
    for (std::size_t j = 0; j <= i && j < sigma.size(); ++j) {
      acc = static_cast<Element>(acc ^ gf.Mul(sigma[j], syndromes[i - j]));
    }
    omega[i] = acc;
  }
  // Formal derivative of sigma.
  auto& sigma_prime = s.sigma_prime;
  sigma_prime.clear();
  for (std::size_t j = 1; j < sigma.size(); j += 2) sigma_prime.push_back(sigma[j]);

  for (int pos : error_positions) {
    const int degree = n_ - 1 - pos;
    const Element x_inv = gf.AlphaPow(-degree);
    // omega(x_inv)
    Element num = 0;
    for (int j = static_cast<int>(omega.size()) - 1; j >= 0; --j) {
      num = static_cast<Element>(gf.Mul(num, x_inv) ^ omega[static_cast<std::size_t>(j)]);
    }
    // sigma'(x_inv) evaluated as polynomial in x^2: sigma'(x) = sum
    // sigma_{2j+1} x^{2j}.
    Element den = 0;
    const Element x_inv_sq = gf.Mul(x_inv, x_inv);
    for (int j = static_cast<int>(sigma_prime.size()) - 1; j >= 0; --j) {
      den = static_cast<Element>(gf.Mul(den, x_inv_sq) ^
                                 sigma_prime[static_cast<std::size_t>(j)]);
    }
    if (den == 0) return common::Internal("Forney denominator zero");
    // Error magnitude with first root alpha^1 and S(x) = sum S_{j+1} x^j:
    // e = omega(X^{-1}) / sigma'(X^{-1}).
    const Element magnitude = gf.Div(num, den);
    word[static_cast<std::size_t>(pos)] ^= magnitude;
  }
  // Verify the correction by recomputing the syndromes in place.
  SyndromesInto(word, s.syndromes);
  if (!std::all_of(s.syndromes.begin(), s.syndromes.end(),
                   [](Element x) { return x == 0; })) {
    return common::Internal("uncorrectable: correction failed verification");
  }
  return num_errors;
}

void ReedSolomon::EncodeMany(std::span<const Element> data, std::span<Element> codewords,
                             BatchScratch& scratch) const {
  LW_CHECK(data.size() % static_cast<std::size_t>(k_) == 0) << "data length % k != 0";
  const int count = static_cast<int>(data.size() / static_cast<std::size_t>(k_));
  LW_CHECK(codewords.size() == static_cast<std::size_t>(count) * static_cast<std::size_t>(n_))
      << "codewords length != count * n";
  // Stage each word's data in its systematic prefix; the kernels below fill
  // the parity tails in place.
  for (int w = 0; w < count; ++w) {
    std::copy_n(data.data() + static_cast<std::size_t>(w) * k_, k_,
                codewords.data() + static_cast<std::size_t>(w) * n_);
  }
  const int lanes = batch::kLaneWidth;
  const int parity = n_ - k_;
  scratch.tile.resize(static_cast<std::size_t>(k_) * lanes);
  scratch.rem_tile.resize(static_cast<std::size_t>(parity) * lanes);
  int w = 0;
  for (; w + lanes <= count; w += lanes) {
    Element* block = codewords.data() + static_cast<std::size_t>(w) * n_;
    // Transpose the systematic prefixes into the SoA tile.
    for (int i = 0; i < k_; ++i) {
      Element* row = scratch.tile.data() + static_cast<std::size_t>(i) * lanes;
      for (int l = 0; l < lanes; ++l) {
        row[l] = block[static_cast<std::size_t>(l) * n_ + i];
        LW_DCHECK(row[l] < Gf1024::kFieldSize) << "data symbol outside GF(2^10)";
      }
    }
    batch::EncodeTile(scratch.tile.data(), k_, parity, encoder_planes_.data(),
                      scratch.rem_tile.data());
    // Remainder rows are low->high; the codeword tail reads highest-degree
    // first (the scalar kernel's std::reverse).
    for (int j = 0; j < parity; ++j) {
      const Element* row = scratch.rem_tile.data() + static_cast<std::size_t>(j) * lanes;
      for (int l = 0; l < lanes; ++l) {
        block[static_cast<std::size_t>(l) * n_ + k_ + (parity - 1 - j)] = row[l];
      }
    }
  }
  for (; w < count; ++w) {  // ragged tail: scalar kernel, same bits
    std::span<Element> word(codewords.data() + static_cast<std::size_t>(w) * n_,
                            static_cast<std::size_t>(n_));
    EncodeInto(word.first(static_cast<std::size_t>(k_)), word);
  }
}

void ReedSolomon::DecodeMany(std::span<Element> words, std::span<int> corrected,
                             BatchScratch& scratch) const {
  LW_CHECK(words.size() % static_cast<std::size_t>(n_) == 0) << "words length % n != 0";
  const int count = static_cast<int>(words.size() / static_cast<std::size_t>(n_));
  LW_CHECK(static_cast<int>(corrected.size()) == count) << "corrected length != count";
  const int lanes = batch::kLaneWidth;
  const int two_t = n_ - k_;
  scratch.tile.resize(static_cast<std::size_t>(n_) * lanes);
  scratch.syn_tile.resize(static_cast<std::size_t>(two_t) * lanes);
  const auto word_at = [&](int word_index) {
    return std::span<Element>(words.data() + static_cast<std::size_t>(word_index) * n_,
                              static_cast<std::size_t>(n_));
  };
  const auto corrected_count = [](const common::Result<int>& result) {
    return result.ok() ? result.value() : kDecodeFailed;
  };

  int w = 0;
  for (; w + lanes <= count; w += lanes) {
    const Element* block = words.data() + static_cast<std::size_t>(w) * n_;
    bool lane_valid[batch::kLaneWidth];
    for (int l = 0; l < lanes; ++l) lane_valid[l] = true;
    for (int i = 0; i < n_; ++i) {
      Element* row = scratch.tile.data() + static_cast<std::size_t>(i) * lanes;
      for (int l = 0; l < lanes; ++l) {
        const Element v = block[static_cast<std::size_t>(l) * n_ + i];
        row[l] = v;
        if (v >= Gf1024::kFieldSize) lane_valid[l] = false;
      }
    }
    batch::SyndromeTile(scratch.tile.data(), n_, two_t, syndrome_planes_.data(),
                        scratch.syn_tile.data());
    for (int l = 0; l < lanes; ++l) {
      int& out = corrected[static_cast<std::size_t>(w + l)];
      if (!lane_valid[l]) {
        // DecodeInPlace rejects out-of-field words before touching them.
        out = kDecodeFailed;
        continue;
      }
      // The scalar tail takes the tile's syndromes instead of recomputing
      // them, and returns 0 at once for a clean word.
      scratch.scalar.syndromes.resize(static_cast<std::size_t>(two_t));
      for (int j = 0; j < two_t; ++j) {
        scratch.scalar.syndromes[static_cast<std::size_t>(j)] =
            scratch.syn_tile[static_cast<std::size_t>(j) * lanes + static_cast<std::size_t>(l)];
      }
      out = corrected_count(DecodeWithComputedSyndromes(word_at(w + l), scratch.scalar));
    }
  }
  for (; w < count; ++w) {  // ragged tail: the per-word decoder
    corrected[static_cast<std::size_t>(w)] =
        corrected_count(DecodeInPlace(word_at(w), scratch.scalar));
  }
}

common::Result<DecodeOutcome> ReedSolomon::Decode(const std::vector<Element>& received) const {
  DecodeOutcome outcome;
  outcome.codeword = received;
  Scratch scratch;
  auto corrected = DecodeInPlace(outcome.codeword, scratch);
  if (!corrected.ok()) return corrected.error();
  outcome.corrected_symbols = corrected.value();
  return outcome;
}

common::Result<DecodeOutcome> ReedSolomon::DecodeWithErasures(
    const std::vector<Element>& received, const std::vector<int>& erasures) const {
  if (static_cast<int>(received.size()) != n_) {
    return common::InvalidArgument("received word length != n");
  }
  if (!AllInField(received)) {
    return common::InvalidArgument("received symbol outside GF(1024)");
  }
  if (erasures.empty()) return Decode(received);
  const int two_t = n_ - k_;
  if (static_cast<int>(erasures.size()) > two_t) {
    return common::InvalidArgument("more erasures than the code can correct");
  }
  for (int pos : erasures) {
    if (pos < 0 || pos >= n_) return common::InvalidArgument("erasure out of range");
  }

  const auto& gf = Gf1024::Instance();
  const auto syndromes = Syndromes(received);
  if (std::all_of(syndromes.begin(), syndromes.end(), [](Element s) { return s == 0; })) {
    return DecodeOutcome{.codeword = received, .corrected_symbols = 0};
  }

  auto poly_mul_mod = [&](const std::vector<Element>& a, const std::vector<Element>& b) {
    std::vector<Element> out(static_cast<std::size_t>(two_t), 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] == 0) continue;
      for (std::size_t j = 0; j < b.size() && i + j < out.size(); ++j) {
        out[i + j] = static_cast<Element>(out[i + j] ^ gf.Mul(a[i], b[j]));
      }
    }
    return out;
  };
  auto eval = [&](const std::vector<Element>& p, Element x) {
    Element acc = 0;
    for (int i = static_cast<int>(p.size()) - 1; i >= 0; --i) {
      acc = static_cast<Element>(gf.Mul(acc, x) ^ p[static_cast<std::size_t>(i)]);
    }
    return acc;
  };

  // Erasure locator Gamma(x) = prod (1 - Y_i x), Y_i = alpha^{degree}.
  std::vector<Element> gamma = {1};
  for (int pos : erasures) {
    const Element y = gf.AlphaPow(n_ - 1 - pos);
    std::vector<Element> next(gamma.size() + 1, 0);
    for (std::size_t j = 0; j < gamma.size(); ++j) {
      next[j] ^= gamma[j];
      next[j + 1] ^= gf.Mul(gamma[j], y);
    }
    gamma = std::move(next);
  }

  // Modified syndromes Xi = [S(x) * Gamma(x)] mod x^{2t}; BM runs on the
  // tail Xi_f .. Xi_{2t-1} to find the error locator sigma.
  const int f = static_cast<int>(erasures.size());
  const auto xi = poly_mul_mod(
      std::vector<Element>(syndromes.begin(), syndromes.end()), gamma);
  std::vector<Element> u(xi.begin() + f, xi.end());  // length 2t - f

  // Berlekamp-Massey over the modified syndromes; temp is hoisted out so
  // the loop reuses its capacity instead of allocating per iteration.
  std::vector<Element> sigma = {1};
  std::vector<Element> prev = {1};
  std::vector<Element> temp;
  Element prev_discrepancy = 1;
  int m = 1;
  int errors = 0;
  for (int i = 0; i < static_cast<int>(u.size()); ++i) {
    Element d = u[static_cast<std::size_t>(i)];
    for (int j = 1; j <= errors && j < static_cast<int>(sigma.size()); ++j) {
      if (i - j >= 0) {
        d = static_cast<Element>(d ^ gf.Mul(sigma[static_cast<std::size_t>(j)],
                                            u[static_cast<std::size_t>(i - j)]));
      }
    }
    if (d == 0) {
      ++m;
      continue;
    }
    const Element coef = gf.Div(d, prev_discrepancy);
    const std::size_t needed = prev.size() + static_cast<std::size_t>(m);
    if (2 * errors <= i) {
      temp.assign(sigma.begin(), sigma.end());
      if (needed > sigma.size()) sigma.resize(needed, 0);
      for (std::size_t j = 0; j < prev.size(); ++j) {
        sigma[j + static_cast<std::size_t>(m)] ^= gf.Mul(coef, prev[j]);
      }
      errors = i + 1 - errors;
      std::swap(prev, temp);
      prev_discrepancy = d;
      m = 1;
    } else {
      if (needed > sigma.size()) sigma.resize(needed, 0);
      for (std::size_t j = 0; j < prev.size(); ++j) {
        sigma[j + static_cast<std::size_t>(m)] ^= gf.Mul(coef, prev[j]);
      }
      ++m;
    }
  }
  while (!sigma.empty() && sigma.back() == 0) sigma.pop_back();
  const int num_errors = static_cast<int>(sigma.size()) - 1;
  if (2 * num_errors + f > two_t) {
    return common::Internal("uncorrectable: errors + erasures exceed capability");
  }

  // Errata locator psi = sigma * gamma; its roots cover both error and
  // erasure positions.
  std::vector<Element> psi(sigma.size() + gamma.size() - 1, 0);
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    for (std::size_t j = 0; j < gamma.size(); ++j) {
      psi[i + j] = static_cast<Element>(psi[i + j] ^ gf.Mul(sigma[i], gamma[j]));
    }
  }

  // Chien search for errata positions.
  std::vector<int> errata_positions;
  for (int i = 0; i < n_; ++i) {
    const Element x_inv = gf.AlphaPow(-(n_ - 1 - i));
    if (eval(psi, x_inv) == 0) errata_positions.push_back(i);
  }
  if (static_cast<int>(errata_positions.size()) != static_cast<int>(psi.size()) - 1) {
    return common::Internal("uncorrectable: errata locator roots != degree");
  }

  // Errata evaluator omega = [S(x) * psi(x)] mod x^{2t}; Forney magnitudes
  // e_k = omega(X^{-1}) / psi'(X^{-1}).
  const auto omega = poly_mul_mod(
      std::vector<Element>(syndromes.begin(), syndromes.end()), psi);
  auto eval_derivative = [&](const std::vector<Element>& p, Element x) {
    // p'(x) = sum over odd j of p_j x^{j-1} (GF(2^m)).
    Element acc = 0;
    Element x_pow = 1;  // x^{j-1} built up two steps at a time
    const Element x_sq = gf.Mul(x, x);
    for (std::size_t j = 1; j < p.size(); j += 2) {
      acc = static_cast<Element>(acc ^ gf.Mul(p[j], x_pow));
      x_pow = gf.Mul(x_pow, x_sq);
    }
    return acc;
  };

  std::vector<Element> corrected = received;
  for (int pos : errata_positions) {
    const Element x_inv = gf.AlphaPow(-(n_ - 1 - pos));
    const Element num = eval(omega, x_inv);
    const Element den = eval_derivative(psi, x_inv);
    if (den == 0) return common::Internal("Forney denominator zero");
    corrected[static_cast<std::size_t>(pos)] ^= gf.Div(num, den);
  }
  if (!IsCodeword(corrected)) {
    return common::Internal("uncorrectable: correction failed verification");
  }
  return DecodeOutcome{.codeword = std::move(corrected),
                       .corrected_symbols = static_cast<int>(errata_positions.size())};
}

}  // namespace lightwave::fec
