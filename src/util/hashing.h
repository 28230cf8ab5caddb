// k-wise independent hash families over F_{2^61-1}.
//
// The paper's sketches require limited independence only (Theorem 8 uses
// O(1)-wise independence; the E_j subsamples need O(log n)-wise independence,
// Section 3.2).  We implement the classical polynomial construction: a random
// degree-(k-1) polynomial over F_p evaluated at the key is a k-wise
// independent function into [0, p).  Helpers map the field output to ranges,
// to [0,1) reals and to Bernoulli subsampling decisions at dyadic rates.
//
// Hot-path notes: coefficients live inline in the hash object (no heap
// indirection on evaluation), eval_many() amortizes the Horner recurrence
// over a batch of keys with instruction-level parallelism, and bucket() uses
// Lemire multiply-shift reduction instead of an integer division.
#ifndef KW_UTIL_HASHING_H
#define KW_UTIL_HASHING_H

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/prime_field.h"

namespace kw {

// A k-wise independent hash function h : uint64 -> [0, 2^61-1).
class KWiseHash {
 public:
  // Largest supported independence.  Every sketch in this library uses
  // k <= 8 (8-wise for the nested-level subsamples, 2/4-wise elsewhere);
  // keeping the coefficients inline bounds the object at one cache line
  // and removes the per-evaluation pointer chase of a heap vector.
  static constexpr std::size_t kMaxIndependence = 8;

  // Constructs a hash with `independence` coefficients (1 <= independence
  // <= kMaxIndependence) drawn deterministically from `seed`.
  KWiseHash(std::size_t independence, std::uint64_t seed);

  // Default: pairwise independence.
  explicit KWiseHash(std::uint64_t seed) : KWiseHash(2, seed) {}

  KWiseHash() : KWiseHash(2, 0) {}

  // Horner evaluation of the random polynomial at (key+1); the shift keeps
  // key 0 from being a fixed point of a zero constant term.
  [[nodiscard]] std::uint64_t operator()(std::uint64_t key) const noexcept {
    const std::uint64_t x = field_reduce(key + 1);
    std::uint64_t acc = coeffs_[size_ - 1];
    for (std::size_t i = size_ - 1; i-- > 0;) {
      acc = field_add(field_mul(acc, x), coeffs_[i]);
    }
    return acc;
  }

  // Batched Horner kernel: out[i] = (*this)(keys[i]).  Processes four keys
  // per round so the 128-bit multiply latency of one chain hides behind the
  // others; bit-identical to per-call evaluation.
  void eval_many(std::span<const std::uint64_t> keys,
                 std::span<std::uint64_t> out) const noexcept;

  // Hash into [0, range) by Lemire multiply-shift: floor(h * range / 2^61).
  // range must be nonzero and < 2^61-1.  One multiply instead of a division;
  // bias relative to uniform is O(range / 2^61), the same order as the
  // `% range` reduction it replaces.
  [[nodiscard]] std::uint64_t bucket(std::uint64_t key,
                                     std::uint64_t range) const noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>((*this)(key)) * range) >> 61);
  }

  // Hash mapped to [0,1).
  [[nodiscard]] double unit(std::uint64_t key) const noexcept {
    return static_cast<double>((*this)(key)) /
           static_cast<double>(kFieldPrime);
  }

  // True iff key survives subsampling at rate 2^{-level}; level 0 always
  // survives.  Every level compares the SAME hash value h = (*this)(key)
  // against the threshold p * 2^-level, so for a fixed key survival is
  // nested (monotone in level): survive(level+1) implies survive(level).
  // The L0 sampler's level construction relies on exactly this invariant --
  // one hash drives all of a key's levels, so the level-j survivor sets form
  // a decreasing chain.  k-wise independence holds across keys at each fixed
  // level, NOT across levels for one key (they are fully correlated by
  // design).
  [[nodiscard]] bool subsample(std::uint64_t key,
                               std::uint32_t level) const noexcept {
    // Compare against p / 2^level; level 0 always passes.
    const std::uint64_t threshold = kFieldPrime >> level;
    return (*this)(key) < threshold || level == 0;
  }

  // Deepest level this key's hash value survives (the largest j with
  // subsample(key, j) true, unbounded above only by the 61-bit hash width).
  // Computed once from h instead of a per-level loop-and-branch:
  // h < p >> j  <=>  bit_width(h+1) <= 61 - j.
  [[nodiscard]] static std::uint64_t deepest_level(std::uint64_t h) noexcept {
    // h < p guarantees bit_width(h+1) <= 61, so this cannot wrap.
    return 61 - static_cast<std::uint64_t>(std::bit_width(h + 1));
  }

  [[nodiscard]] std::size_t independence() const noexcept { return size_; }

  // The polynomial coefficients (constant term first).  A contiguous array
  // of KWiseHash objects is therefore a flat coefficient matrix -- the
  // shape eval_deepest_levels() streams.
  [[nodiscard]] std::span<const std::uint64_t> coefficients() const noexcept {
    return {coeffs_.data(), size_};
  }

 private:
  std::array<std::uint64_t, kMaxIndependence> coeffs_{};  // inline, no heap
  std::size_t size_ = 0;  // active coefficient count (the independence k)
};

// Shared power table for eval_deepest_levels: out[s * degree + (j-1)] =
// x_s^j over F_p for j = 1..degree, where x_s = field_reduce(keys[s] + 1)
// is key s's evaluation point (the one KWiseHash::operator() uses).  The
// table depends only on the keys, NOT on any hash's coefficients, so one
// build serves every hash function evaluated over the batch (all 48 group x
// instance hashes of a 12-round AGM sketch, for example).
void build_eval_powers(std::span<const std::uint64_t> keys,
                       std::size_t degree, std::uint64_t* out);

// Fused level sweep for a block of hash functions sharing one key stream:
// out[s * out_stride + h] = min(level_cap, deepest_level(hashes[h](key_s)))
// for every key and every hash (out_stride in bytes allows landing levels
// inside per-key record structs).  Evaluation uses the dot-product form
// c_0 + sum_j c_j * x^j over the shared `powers` table (degree entries per
// key, from build_eval_powers): the 128-bit products of one value are
// independent (no Horner chain) and accumulate exactly in 128 bits, with
// one canonical reduction per value -- bit-identical to per-call Horner
// evaluation, which the sketch-bank golden tests pin.  All hashes must
// share independence degree+1, and count must be <= out_stride.
void eval_deepest_levels(const KWiseHash* hashes, std::size_t count,
                         std::span<const std::uint64_t> powers,
                         std::size_t degree, std::size_t keys,
                         std::uint8_t level_cap, std::uint8_t* out,
                         std::size_t out_stride);

// A family of independent KWiseHash functions indexed by an integer, all
// derived from one master seed.  Convenience for "one hash per level".
// KWiseHash stores its coefficients inline, so the family is one contiguous
// block.
class HashFamily {
 public:
  HashFamily(std::size_t count, std::size_t independence, std::uint64_t seed);

  [[nodiscard]] const KWiseHash& operator[](std::size_t i) const {
    return hashes_[i];
  }
  [[nodiscard]] std::size_t size() const noexcept { return hashes_.size(); }

 private:
  std::vector<KWiseHash> hashes_;
};

// Combines two 32-ish-bit values into a single hashable 64-bit key.
[[nodiscard]] constexpr std::uint64_t pack_pair(std::uint64_t a,
                                                std::uint64_t b) noexcept {
  return (a << 32) | (b & 0xffffffffULL);
}

}  // namespace kw

#endif  // KW_UTIL_HASHING_H
