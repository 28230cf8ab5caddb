#include "agm/neighborhood_sketch.h"

#include <stdexcept>

#include "util/random.h"

namespace kw {

std::vector<std::uint64_t> agm_round_seeds(const AgmConfig& config) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(config.rounds);
  for (std::size_t r = 0; r < config.rounds; ++r) {
    // Same seed for every vertex within a round => summable; different seed
    // across rounds => independent retries.
    seeds.push_back(derive_seed(config.seed, 0xa6000 + r));
  }
  return seeds;
}

namespace {

[[nodiscard]] BankGroupConfig group_config(Vertex n, const AgmConfig& config) {
  BankGroupConfig c;
  c.max_coord = num_pairs(n);
  c.instances = config.sampler_instances;
  c.seeds = agm_round_seeds(config);
  return c;
}

}  // namespace

AgmGraphSketch::AgmGraphSketch(Vertex n, const AgmConfig& config)
    : n_(n), config_(config), group_(n, group_config(n, config)) {
  if (n < 2) throw std::invalid_argument("AGM sketch needs n >= 2");
}

void AgmGraphSketch::stage(Vertex n, std::span<const EdgeUpdate> batch,
                           std::vector<BankPairUpdate>& out) {
  // Whole-span validation before the first append keeps the documented
  // all-or-nothing contract: a throw leaves `out` untouched, never holding
  // a partial prefix a caller could accidentally ingest.
  check_endpoints(batch, n, "AgmGraphSketch");
  out.clear();
  out.reserve(batch.size());
  for (const EdgeUpdate& u : batch) {
    if (u.u == u.v) continue;
    BankPairUpdate b;
    b.lo = u.u < u.v ? u.u : u.v;
    b.hi = u.u < u.v ? u.v : u.u;
    b.coord = pair_id(u.u, u.v, n);
    b.delta = u.delta;
    out.push_back(b);
  }
}

void AgmGraphSketch::ingest_staged(std::span<const BankPairUpdate> staged) {
  group_.ingest_pairs(staged);
}

void AgmGraphSketch::absorb(std::span<const EdgeUpdate> batch) {
  stage(n_, batch, staging_);
  group_.ingest_pairs_in_place(staging_);
}

void AgmGraphSketch::merge(const AgmGraphSketch& other, std::int64_t sign) {
  if (other.n_ != n_ || other.config_.rounds != config_.rounds ||
      other.config_.seed != config_.seed) {
    throw std::invalid_argument("merging incompatible AGM sketches");
  }
  group_.merge(other.group_, sign);
}

}  // namespace kw
