/// Polynomial identity fingerprints over F_{2^61-1}: O(1)-word linear
/// summaries used as the zero-test inside every sketch cell in this repo
/// (sparse recovery, L0 sampling, distinct elements).
///
/// A vector x is fingerprinted as F(x) = sum_i x_i * r^(i+1) mod p for a
/// random evaluation point r.  F is linear in x, so it composes with every
/// other linear sketch here; by Schwartz-Zippel two distinct vectors collide
/// with probability <= max_coord/p per evaluation point.  Sketches carry two
/// independent points to push collision probability below 2^-38 even for
/// coordinate spaces of size n^2.
#ifndef KW_SKETCH_FINGERPRINT_H
#define KW_SKETCH_FINGERPRINT_H

#include <bit>
#include <cstdint>
#include <memory>

#include "util/prime_field.h"

namespace kw {

// A pair of evaluation points derived from a seed.  Shared by all cells of a
// sketch so cell contents can be compared and subtracted.
//
// The evaluation-point powers r^(2^i) are precomputed at construction, so a
// fingerprint term costs popcount(coord+1) field multiplies instead of a full
// square-and-multiply ladder -- this sits on the per-update hot path of every
// cell add in the library.  Values are bit-identical to field_pow.  Tables
// cover kPowBits exponent bits (every coordinate space in the library is
// < 2^42) with a square-and-multiply fallback for larger exponents, and live
// behind a shared_ptr so COPIES of a basis share one table: per-vertex
// sketch arrays built by copying a prototype (the emplacement pattern in
// additive_spanner/multipass_spanner) cost 16 bytes per copy, not ~700.
//
// The radix-16/radix-256 walk tables behind pow_pair()/pow_pair_bytes() are
// a batched-ingest accelerator: ~27 KiB and ~2000 field multiplies per
// basis.  Sketches instantiated by the tens of thousands with DISTINCT
// seeds opt out via full_tables = false: pow_pair*() then falls back to
// the square tables with bit-identical results, construction drops to the
// 88 squarings, and the basis costs ~0.7 KiB instead of ~28 KiB.  (The
// historical poster child -- the KP12 fleet's per-terminal kv tables --
// moved to a row-shared KvBankGeometry whose single basis DOES carry full
// tables; today the compact form serves standalone SparseRecoverySketches.)
class FingerprintBasis {
 public:
  static constexpr std::size_t kPowBits = 44;
  static constexpr std::size_t kPowNibbles = (kPowBits + 3) / 4;
  static constexpr std::size_t kPowBytes = (kPowBits + 7) / 8;

  explicit FingerprintBasis(std::uint64_t seed, bool full_tables = true);
  FingerprintBasis() : FingerprintBasis(0) {}

  // Contribution of (coordinate, signed delta) to each fingerprint.
  [[nodiscard]] std::uint64_t term1(std::uint64_t coord,
                                    std::int64_t delta) const noexcept {
    return field_mul(field_from_signed(delta), pow_r1(coord + 1));
  }
  [[nodiscard]] std::uint64_t term2(std::uint64_t coord,
                                    std::int64_t delta) const noexcept {
    return field_mul(field_from_signed(delta), pow_r2(coord + 1));
  }

  // r1^exp / r2^exp from the precomputed square tables.
  [[nodiscard]] std::uint64_t pow_r1(std::uint64_t exp) const noexcept {
    return pow_from(squares_->sq1, exp);
  }
  [[nodiscard]] std::uint64_t pow_r2(std::uint64_t exp) const noexcept {
    return pow_from(squares_->sq2, exp);
  }

  // Both points' powers at once from the radix-16 tables: one multiply per
  // nonzero exponent nibble instead of one per set bit, with the r1 and r2
  // chains interleaved so their multiply latencies overlap.  Values are
  // bit-identical to pow_r1/pow_r2 (field_mul is exact and associative).
  // This is the staged-term fast path of BankGroup::ingest_pairs.  A
  // compact basis (full_tables = false) falls back to the square tables,
  // same values.
  void pow_pair(std::uint64_t exp, std::uint64_t* out1,
                std::uint64_t* out2) const noexcept {
    if (radix_ == nullptr || (exp >> kPowBits) != 0) [[unlikely]] {
      pow_pair_fallback(exp, out1, out2);
      return;
    }
    std::uint64_t r1 = 1;
    std::uint64_t r2 = 1;
    const auto& nib1 = radix_->nib1;
    const auto& nib2 = radix_->nib2;
    for (std::size_t i = 0; exp != 0; ++i, exp >>= 4) {
      const std::size_t d = exp & 15;
      if (d != 0) {
        r1 = field_mul(r1, nib1[i][d]);
        r2 = field_mul(r2, nib2[i][d]);
      }
    }
    *out1 = r1;
    *out2 = r2;
  }

  // pow_pair with a caller-fixed radix-256 digit count (exp < 256^bytes
  // required, 1 <= bytes <= kPowBytes): the loop has no data-dependent
  // branches -- zero digits multiply by the table's 1 entry, which
  // field_mul maps exactly -- so a batch with one digit bound (e.g. all
  // pair ids of one vertex set) runs branch-predictor-clean, one multiply
  // per digit with the r1/r2 chains interleaved, and one basis's byte
  // tables (24 KiB) fit L1 for the whole sweep.  Bit-identical to
  // pow_r1/pow_r2 (field_mul is exact and associative); a compact basis
  // falls back to them.
  void pow_pair_bytes(std::uint64_t exp, std::size_t bytes,
                      std::uint64_t* out1, std::uint64_t* out2) const noexcept {
    if (radix_ == nullptr) [[unlikely]] {
      pow_pair_fallback(exp, out1, out2);
      return;
    }
    const auto& byte1 = radix_->byte1;
    const auto& byte2 = radix_->byte2;
    std::uint64_t r1 = byte1[0][exp & 255];
    std::uint64_t r2 = byte2[0][exp & 255];
    for (std::size_t i = 1; i < bytes; ++i) {
      exp >>= 8;
      const std::size_t d = exp & 255;
      r1 = field_mul(r1, byte1[i][d]);
      r2 = field_mul(r2, byte2[i][d]);
    }
    *out1 = r1;
    *out2 = r2;
  }

  [[nodiscard]] std::uint64_t r1() const noexcept { return squares_->sq1[0]; }
  [[nodiscard]] std::uint64_t r2() const noexcept { return squares_->sq2[0]; }
  [[nodiscard]] bool has_radix_tables() const noexcept {
    return radix_ != nullptr;
  }

 private:
  // Out-of-line square-table fallback for the pow_pair* entry points: kept
  // OUT of the inline bodies so their hot radix loops stay small enough to
  // inline into the batched kernels (the fallback only runs for compact
  // bases and off-range exponents).
  void pow_pair_fallback(std::uint64_t exp, std::uint64_t* out1,
                         std::uint64_t* out2) const noexcept;

  struct SquareTables {
    std::uint64_t sq1[kPowBits];  // sq1[i] = r1^(2^i)
    std::uint64_t sq2[kPowBits];  // sq2[i] = r2^(2^i)
  };
  struct RadixTables {
    std::uint64_t nib1[kPowNibbles][16];  // nib1[i][d] = r1^(d * 16^i)
    std::uint64_t nib2[kPowNibbles][16];  // nib2[i][d] = r2^(d * 16^i)
    std::uint64_t byte1[kPowBytes][256];  // byte1[i][d] = r1^(d * 256^i)
    std::uint64_t byte2[kPowBytes][256];  // byte2[i][d] = r2^(d * 256^i)
  };

  [[nodiscard]] static std::uint64_t pow_from(
      const std::uint64_t (&sq)[kPowBits], std::uint64_t exp) noexcept {
    std::uint64_t result = 1;
    std::uint64_t lo = exp & ((std::uint64_t{1} << kPowBits) - 1);
    while (lo != 0) {
      result = field_mul(result, sq[std::countr_zero(lo)]);
      lo &= lo - 1;  // clear lowest set bit
    }
    const std::uint64_t hi = exp >> kPowBits;
    if (hi != 0) {
      // Off every coordinate space in the library; exact via
      // r^(hi * 2^kPowBits) = (r^(2^(kPowBits-1)))^(2*hi).
      result = field_mul(result, field_pow(sq[kPowBits - 1], 2 * hi));
    }
    return result;
  }

  // Shared by copies of this basis.
  std::shared_ptr<const SquareTables> squares_;
  std::shared_ptr<const RadixTables> radix_;  // null for a compact basis
};

// Linear one-sparse detector: the classic (count, coordinate-weighted sum,
// fingerprint) triple.  Exactly recovers (coord, value) when the underlying
// vector has a single nonzero coordinate; detects "zero" and (whp) "more
// than one" otherwise.
struct OneSparseCell {
  std::int64_t count = 0;      // sum of deltas
  std::uint64_t coord_sum = 0;  // sum of delta * coord, mod 2^64 (exact: linear)
  std::uint64_t fp1 = 0;       // fingerprints over F_p
  std::uint64_t fp2 = 0;

  void add(std::uint64_t coord, std::int64_t delta,
           const FingerprintBasis& basis) noexcept {
    count += delta;
    coord_sum += static_cast<std::uint64_t>(delta) * coord;
    fp1 = field_add(fp1, basis.term1(coord, delta));
    fp2 = field_add(fp2, basis.term2(coord, delta));
  }

  // add() with the fingerprint terms precomputed by the caller: t1/t2 must
  // equal basis.term1/term2(coord, delta).  This is the staged-ingest fast
  // path -- one term computation serves every cell (all rows, all tables)
  // the same (coord, delta) lands in, where add() would recompute the power
  // walk per cell.
  void add_term(std::uint64_t coord, std::int64_t delta, std::uint64_t t1,
                std::uint64_t t2) noexcept {
    count += delta;
    coord_sum += static_cast<std::uint64_t>(delta) * coord;
    fp1 = field_add(fp1, t1);
    fp2 = field_add(fp2, t2);
  }

  void merge(const OneSparseCell& other, std::int64_t sign) noexcept {
    count += sign * other.count;
    coord_sum += static_cast<std::uint64_t>(sign) * other.coord_sum;
    if (sign >= 0) {
      fp1 = field_add(fp1, other.fp1);
      fp2 = field_add(fp2, other.fp2);
    } else {
      fp1 = field_sub(fp1, other.fp1);
      fp2 = field_sub(fp2, other.fp2);
    }
  }

  [[nodiscard]] bool is_zero() const noexcept {
    return count == 0 && coord_sum == 0 && fp1 == 0 && fp2 == 0;
  }
};

struct Recovered {
  std::uint64_t coord = 0;
  std::int64_t value = 0;
};

enum class CellState { kZero, kOneSparse, kManyOrUnknown };

// Classifies a cell; on kOneSparse fills `out` with the unique (coord, value).
// `max_coord` bounds valid coordinates (exclusive) and is part of the
// verification.
[[nodiscard]] CellState classify_cell(const OneSparseCell& cell,
                                      std::uint64_t max_coord,
                                      const FingerprintBasis& basis,
                                      Recovered* out);

}  // namespace kw

#endif  // KW_SKETCH_FINGERPRINT_H
