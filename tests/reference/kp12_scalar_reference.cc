#include "reference/kp12_scalar_reference.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "graph/graph.h"
#include "util/hashing.h"

namespace kw {

namespace {

// Nested subsample level of a pair under a hash: the largest L <= max_level
// such that the pair survives rate 2^-L.
[[nodiscard]] std::size_t survive_level(const KWiseHash& hash,
                                        std::uint64_t pair,
                                        std::size_t max_level) {
  return std::min<std::uint64_t>(max_level,
                                 KWiseHash::deepest_level(hash(pair)));
}

}  // namespace

void Kp12ScalarReference::absorb(Kp12Sparsifier& sp,
                                 std::span<const EdgeUpdate> batch) {
  if (sp.phase_ == Kp12Sparsifier::Phase::kDone) {
    throw std::logic_error("Kp12Sparsifier: absorb() after finish()");
  }
  if (batch.empty()) return;
  sp.ensure_instances();
  for (const EdgeUpdate& upd : batch) {
    const std::uint64_t pair = pair_id(upd.u, upd.v, sp.n_);
    const std::span<const EdgeUpdate> one(&upd, 1);
    for (std::size_t j = 0; j < sp.config_.j_copies; ++j) {
      const std::size_t lvl =
          survive_level(sp.estimate_hashes_[j], pair, sp.t_levels_ - 1);
      for (std::size_t t = 0; t <= lvl; ++t) sp.oracles_[j][t].absorb(one);
    }
    for (std::size_t s = 0; s < sp.config_.z_samples; ++s) {
      const std::size_t lvl =
          survive_level(sp.sample_hashes_[s], pair, sp.h_levels_ - 1);
      for (std::size_t j = 0; j <= lvl; ++j) sp.samplers_[s][j].absorb(one);
    }
  }
}

}  // namespace kw
