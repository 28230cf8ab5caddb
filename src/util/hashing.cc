#include "util/hashing.h"

#include <algorithm>
#include <stdexcept>

#include "util/hot_dispatch.h"
#include "util/random.h"

namespace kw {

KWiseHash::KWiseHash(std::size_t independence, std::uint64_t seed) {
  if (independence == 0) independence = 1;
  if (independence > kMaxIndependence) {
    throw std::invalid_argument(
        "KWiseHash: independence exceeds kMaxIndependence (inline storage)");
  }
  size_ = independence;
  for (std::size_t i = 0; i < independence; ++i) {
    // Rejection-free: field_reduce of a uniform 64-bit word is close enough
    // to uniform over F_p (bias 2^-61) for every use in this library.
    coeffs_[i] = field_reduce(derive_seed(seed, i));
  }
  // Leading coefficient nonzero keeps the polynomial's degree exact, which
  // the k-wise independence argument requires.
  if (size_ > 1 && coeffs_[size_ - 1] == 0) coeffs_[size_ - 1] = 1;
}

void KWiseHash::eval_many(std::span<const std::uint64_t> keys,
                          std::span<std::uint64_t> out) const noexcept {
  const std::size_t k = size_;
  const std::uint64_t top = coeffs_[k - 1];
  std::size_t i = 0;
  // Four interleaved Horner chains: each step's 128-bit multiplies are
  // independent across lanes, so the CPU overlaps them instead of stalling
  // on one chain's multiply->reduce latency.
  for (; i + 4 <= keys.size(); i += 4) {
    const std::uint64_t x0 = field_reduce(keys[i + 0] + 1);
    const std::uint64_t x1 = field_reduce(keys[i + 1] + 1);
    const std::uint64_t x2 = field_reduce(keys[i + 2] + 1);
    const std::uint64_t x3 = field_reduce(keys[i + 3] + 1);
    std::uint64_t a0 = top;
    std::uint64_t a1 = top;
    std::uint64_t a2 = top;
    std::uint64_t a3 = top;
    for (std::size_t c = k - 1; c-- > 0;) {
      const std::uint64_t coeff = coeffs_[c];
      a0 = field_add(field_mul(a0, x0), coeff);
      a1 = field_add(field_mul(a1, x1), coeff);
      a2 = field_add(field_mul(a2, x2), coeff);
      a3 = field_add(field_mul(a3, x3), coeff);
    }
    out[i + 0] = a0;
    out[i + 1] = a1;
    out[i + 2] = a2;
    out[i + 3] = a3;
  }
  for (; i < keys.size(); ++i) out[i] = (*this)(keys[i]);
}

namespace {

// A block of HB <= 4 hashes' dot products over one key's power row.  The
// per-product 128-bit multiplies are all independent (no Horner chain), so
// the multiplier pipeline stays full.  DEG > 0 fixes the polynomial degree
// at compile time (degree 7 -- 8-wise independence, every bank hash -- gets
// fully unrolled bodies); DEG == 0 reads it from the argument.
template <int HB, int DEG>
KW_TARGET_CLONES void eval_levels_block(const KWiseHash* hashes,
                                        std::size_t stride,
                                        const std::uint64_t* powers,
                                        std::size_t degree, std::size_t keys,
                                        std::uint8_t level_cap,
                                        std::uint8_t* out) {
  const std::size_t deg = DEG > 0 ? DEG : degree;
  const std::uint64_t* cf[HB];
  for (int b = 0; b < HB; ++b) cf[b] = hashes[b].coefficients().data();
  for (std::size_t s = 0; s < keys; ++s) {
    const std::uint64_t* xp = powers + s * deg;
    __uint128_t acc[HB];
    for (int b = 0; b < HB; ++b) acc[b] = cf[b][0];
    for (std::size_t j = 0; j < deg; ++j) {
      const std::uint64_t p = xp[j];
      for (int b = 0; b < HB; ++b) {
        acc[b] += static_cast<__uint128_t>(cf[b][j + 1]) * p;
      }
    }
    for (int b = 0; b < HB; ++b) {
      const std::uint64_t h = field_reduce_wide(acc[b]);
      const std::uint64_t deep = KWiseHash::deepest_level(h);
      out[s * stride + b] =
          deep < level_cap ? static_cast<std::uint8_t>(deep) : level_cap;
    }
  }
}

template <int HB>
void eval_levels_block_dispatch(const KWiseHash* hashes, std::size_t stride,
                                const std::uint64_t* powers,
                                std::size_t degree, std::size_t keys,
                                std::uint8_t level_cap, std::uint8_t* out) {
  if (degree == 7) {
    eval_levels_block<HB, 7>(hashes, stride, powers, degree, keys, level_cap,
                             out);
  } else {
    eval_levels_block<HB, 0>(hashes, stride, powers, degree, keys, level_cap,
                             out);
  }
}

}  // namespace

KW_TARGET_CLONES void build_eval_powers(std::span<const std::uint64_t> keys,
                                        std::size_t degree,
                                        std::uint64_t* out) {
  for (std::size_t s = 0; s < keys.size(); ++s) {
    const std::uint64_t x = field_reduce(keys[s] + 1);
    std::uint64_t* row = out + s * degree;
    std::uint64_t acc = x;
    for (std::size_t j = 0; j < degree; ++j) {
      row[j] = acc;
      acc = field_mul(acc, x);
    }
  }
}

void eval_deepest_levels(const KWiseHash* hashes, std::size_t count,
                         std::span<const std::uint64_t> powers,
                         std::size_t degree, std::size_t keys,
                         std::uint8_t level_cap, std::uint8_t* out,
                         std::size_t out_stride) {
  if (powers.size() < keys * degree) {
    throw std::invalid_argument("eval_deepest_levels: power table too small");
  }
  if (count > out_stride) {
    throw std::invalid_argument("eval_deepest_levels: stride < hash count");
  }
  for (std::size_t h = 0; h < count; ++h) {
    if (hashes[h].independence() != degree + 1) {
      throw std::invalid_argument(
          "eval_deepest_levels: hash independence != degree + 1");
    }
  }
  for (std::size_t h0 = 0; h0 < count; h0 += 4) {
    const std::size_t hb = std::min<std::size_t>(4, count - h0);
    std::uint8_t* block_out = out + h0;
    switch (hb) {
      case 1:
        eval_levels_block_dispatch<1>(hashes + h0, out_stride, powers.data(), degree,
                             keys, level_cap, block_out);
        break;
      case 2:
        eval_levels_block_dispatch<2>(hashes + h0, out_stride, powers.data(), degree,
                             keys, level_cap, block_out);
        break;
      case 3:
        eval_levels_block_dispatch<3>(hashes + h0, out_stride, powers.data(), degree,
                             keys, level_cap, block_out);
        break;
      default:
        eval_levels_block_dispatch<4>(hashes + h0, out_stride, powers.data(), degree,
                             keys, level_cap, block_out);
        break;
    }
  }
}

HashFamily::HashFamily(std::size_t count, std::size_t independence,
                       std::uint64_t seed) {
  hashes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    hashes_.emplace_back(independence, derive_seed(seed, 0x9000 + i));
  }
}

}  // namespace kw
