#include "agm/k_connectivity.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "agm/spanning_forest.h"
#include "engine/stream_engine.h"
#include "util/random.h"

namespace kw {

namespace {

// One flat seed list covering every layer's rounds: layer i uses the seed
// chain the standalone AgmGraphSketch with seed derive_seed(seed, 0x6c0+i)
// would, so cells are bit-identical to the k-independent-sketches layout.
[[nodiscard]] BankGroupConfig group_config(Vertex n, std::size_t k,
                                           const AgmConfig& config) {
  BankGroupConfig c;
  c.max_coord = num_pairs(n);
  c.instances = config.sampler_instances;
  c.seeds.reserve(k * config.rounds);
  for (std::size_t i = 0; i < k; ++i) {
    AgmConfig layer = config;
    layer.seed = derive_seed(config.seed, 0x6c0 + i);
    const auto layer_seeds = agm_round_seeds(layer);
    c.seeds.insert(c.seeds.end(), layer_seeds.begin(), layer_seeds.end());
  }
  return c;
}

}  // namespace

KConnectivitySketch::KConnectivitySketch(Vertex n, std::size_t k,
                                         const AgmConfig& config)
    : n_(n), k_(k), config_(config) {
  if (k == 0) throw std::invalid_argument("k must be >= 1");
  if (n < 2) throw std::invalid_argument("AGM sketch needs n >= 2");
  group_ = BankGroup(n, group_config(n, k, config));
}

void KConnectivitySketch::merge(const KConnectivitySketch& other,
                                std::int64_t sign) {
  if (other.k_ != k_ || other.n_ != n_) {
    throw std::invalid_argument("merging incompatible k-connectivity sketches");
  }
  group_.merge(other.group_, sign);
}

KConnectivityResult KConnectivitySketch::extract() && {
  KConnectivityResult result;
  result.certificate = Graph(n_);
  std::vector<std::uint32_t> identity(n_);
  std::iota(identity.begin(), identity.end(), 0u);
  std::vector<BankPairUpdate> removed;  // all forest edges peeled so far
  for (std::size_t i = 0; i < k_; ++i) {
    const std::size_t layer_first = i * config_.rounds;
    // Subtract previously peeled forests from this layer's rounds in one
    // batch (linearity).
    group_.ingest_pairs(removed, layer_first, config_.rounds);
    const ForestResult forest =
        agm_spanning_forest(group_, layer_first, config_.rounds, identity);
    result.complete = result.complete && forest.complete;
    result.decode_failures_per_layer.push_back(forest.decode_failures);
    result.decode_failures += forest.decode_failures;
    for (const auto& e : forest.edges) {
      result.certificate.add_edge(e.u, e.v, e.weight);
      removed.push_back({std::min(e.u, e.v), std::max(e.u, e.v),
                         pair_id(e.u, e.v, n_), -1});
    }
    result.forests.push_back(forest.edges);
  }
  return result;
}

std::size_t KConnectivitySketch::nominal_bytes() const noexcept {
  return group_.nominal_bytes();
}

void KConnectivitySketch::absorb(std::span<const EdgeUpdate> batch) {
  if (finished_) {
    throw std::logic_error("KConnectivitySketch: absorb() after finish()");
  }
  // Staging (self-loop filter, pair ids) depends only on (n, batch): do it
  // once into the reused buffer and drive ALL k*rounds banks with one
  // fused ingest.
  AgmGraphSketch::stage(n_, batch, staging_);
  group_.ingest_pairs(staging_);
}

void KConnectivitySketch::advance_pass() {
  throw std::logic_error(
      "KConnectivitySketch: single-pass, advance_pass() is never legal");
}

void KConnectivitySketch::finish() {
  if (finished_) {
    throw std::logic_error("KConnectivitySketch: finish() called twice");
  }
  finished_ = true;
  result_ = std::move(*this).extract();
  health_.name = "KConnectivity";
  health_.l0_failures = result_->decode_failures;
  health_.failures_per_round = result_->decode_failures_per_layer;
  health_.degraded = !result_->complete;
}

ProcessorHealth KConnectivitySketch::health() const { return health_; }

std::unique_ptr<StreamProcessor> KConnectivitySketch::clone_empty() const {
  if (finished_) return nullptr;
  return std::make_unique<KConnectivitySketch>(n_, k_, config_);
}

void KConnectivitySketch::merge(StreamProcessor&& other) {
  merge(merge_cast<KConnectivitySketch>(other), 1);
}

KConnectivityResult KConnectivitySketch::take_result() {
  if (!result_.has_value()) {
    throw std::logic_error(
        "KConnectivitySketch: result unavailable (finish() not reached or "
        "result already taken)");
  }
  KConnectivityResult out = std::move(*result_);
  result_.reset();
  return out;
}

KConnectivityResult KConnectivitySketch::from_stream(
    const DynamicStream& stream, std::size_t k, const AgmConfig& config) {
  KConnectivitySketch sketch(stream.n(), k, config);
  StreamEngine::run_single(sketch, stream);
  return sketch.take_result();
}

}  // namespace kw
