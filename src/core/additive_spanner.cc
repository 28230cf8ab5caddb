#include "core/additive_spanner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "agm/spanning_forest.h"
#include "engine/stream_engine.h"
#include "util/random.h"

namespace kw {

namespace {

[[nodiscard]] double degree_threshold_for(Vertex n,
                                          const AdditiveConfig& config) {
  const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
  return std::max(4.0, config.threshold_factor * config.d * logn);
}

[[nodiscard]] SparseRecoveryConfig neighborhood_config(
    Vertex n, const AdditiveConfig& config) {
  SparseRecoveryConfig c;
  c.max_coord = n;
  c.budget = static_cast<std::size_t>(
      std::ceil(config.budget_slack * degree_threshold_for(n, config)));
  c.rows = 3;
  c.seed = derive_seed(config.seed, 0xad1);
  return c;
}

[[nodiscard]] BankGroupConfig center_config(Vertex n,
                                            const AdditiveConfig& config) {
  BankGroupConfig c;
  c.max_coord = n;
  c.instances = 4;
  c.seeds = {derive_seed(config.seed, 0xad2)};
  return c;
}

[[nodiscard]] DistinctElementsConfig degree_config(
    Vertex n, const AdditiveConfig& config) {
  DistinctElementsConfig c;
  c.max_coord = n;
  c.epsilon = config.degree_epsilon;
  c.repetitions = config.degree_repetitions;
  c.seed = derive_seed(config.seed, 0xad3);
  return c;
}

[[nodiscard]] AgmConfig agm_config(const AdditiveConfig& config) {
  AgmConfig c;
  c.rounds = config.agm_rounds;
  c.sampler_instances = config.agm_instances;
  c.seed = derive_seed(config.seed, 0xad4);
  return c;
}

}  // namespace

AdditiveSpannerSketch::AdditiveSpannerSketch(Vertex n,
                                             const AdditiveConfig& config)
    : n_(n),
      config_(config),
      threshold_(degree_threshold_for(n, config)),
      in_centers_(n, 0),
      center_bank_(n, center_config(n, config)),
      agm_(n, agm_config(config)) {
  if (n < 2) throw std::invalid_argument("additive spanner needs n >= 2");
  if (config.d < 1.0) throw std::invalid_argument("d must be >= 1");
  // Centers: each vertex independently with probability ~ c/d so that
  // every Theta(d log n)-degree vertex sees one whp.
  const double rate = std::min(1.0, config.center_rate_factor / config.d);
  const KWiseHash center_hash(8, derive_seed(config.seed, 0xad0));
  for (Vertex v = 0; v < n; ++v) {
    in_centers_[v] = center_hash.unit(v) < rate ? 1 : 0;
  }
  // Copies of one prototype: every vertex shares the same seeded geometry,
  // and copying shares the fingerprint pow tables instead of rebuilding
  // them n times.
  neighborhood_.assign(n, SparseRecoverySketch(neighborhood_config(n, config)));
  degree_.assign(n, DistinctElementsSketch(degree_config(n, config)));
}

void AdditiveSpannerSketch::absorb(std::span<const EdgeUpdate> batch) {
  if (finished_) throw std::logic_error("sketch already finished");
  check_endpoints(batch, n_, "AdditiveSpannerSketch");
  // Center-sampler updates ride the bank's fused batched path (gathered
  // into a reused buffer); neighborhood/degree stay per-update (different
  // sketch types), and the AGM part takes the batch in one fused call.
  center_staging_.clear();
  for (const EdgeUpdate& u : batch) {
    if (u.u == u.v) continue;
    neighborhood_[u.u].update(u.v, u.delta);
    neighborhood_[u.v].update(u.u, u.delta);
    degree_[u.u].update(u.v, u.delta);
    degree_[u.v].update(u.u, u.delta);
    // A^r(u) sketches N(u) cap C (cap Z^r handled inside the bank's levels).
    if (in_centers_[u.v]) center_staging_.push_back({u.u, u.v, u.delta});
    if (in_centers_[u.u]) center_staging_.push_back({u.v, u.u, u.delta});
  }
  center_bank_.ingest_updates(center_staging_);
  agm_.absorb(batch);
}

void AdditiveSpannerSketch::advance_pass() {
  throw std::logic_error(
      "AdditiveSpannerSketch: single-pass, advance_pass() is never legal");
}

std::unique_ptr<StreamProcessor> AdditiveSpannerSketch::clone_empty() const {
  if (finished_) return nullptr;
  // The constructor is deterministic in (n, config): centers, thresholds
  // and every sketch's randomness coincide with ours, state is zero.
  return std::make_unique<AdditiveSpannerSketch>(n_, config_);
}

void AdditiveSpannerSketch::merge(StreamProcessor&& other) {
  auto& o = merge_cast<AdditiveSpannerSketch>(other);
  if (o.n_ != n_ || o.config_.seed != config_.seed || o.finished_ ||
      finished_) {
    throw std::invalid_argument(
        "AdditiveSpannerSketch::merge: incompatible instance (n/seed/phase)");
  }
  for (Vertex v = 0; v < n_; ++v) {
    neighborhood_[v].merge(o.neighborhood_[v], 1);
    degree_[v].merge(o.degree_[v], 1);
  }
  center_bank_.merge(o.center_bank_, 1);
  agm_.merge(o.agm_, 1);
}

AdditiveResult AdditiveSpannerSketch::take_result() {
  if (!result_.has_value()) {
    throw std::logic_error(
        "AdditiveSpannerSketch: result unavailable (finish() not reached or "
        "result already taken)");
  }
  AdditiveResult out = std::move(*result_);
  result_.reset();
  return out;
}

void AdditiveSpannerSketch::finish() {
  if (finished_) throw std::logic_error("sketch already finished");
  finished_ = true;
  AdditiveResult result;
  auto& diag = result.diagnostics;

  // 1. Classify vertices by estimated degree; decode E_low.
  std::map<std::pair<Vertex, Vertex>, std::int64_t> elow;  // pair -> mult
  std::vector<char> low(n_, 0);
  for (Vertex u = 0; u < n_; ++u) {
    const double est = degree_[u].estimate();
    if (est > threshold_) continue;
    const auto support = neighborhood_[u].decode();
    if (!support.has_value()) {
      ++diag.low_decode_failures;  // treated as high-degree below
      continue;
    }
    low[u] = 1;
    ++diag.low_degree_vertices;
    for (const auto& rec : *support) {
      const auto v = static_cast<Vertex>(rec.coord);
      elow.try_emplace({std::min(u, v), std::max(u, v)}, rec.value);
    }
  }

  // 2. Attach remaining (high-degree) vertices to centers.
  std::map<std::pair<Vertex, Vertex>, double> edges;
  auto add = [&edges](Vertex a, Vertex b) {
    edges.try_emplace({std::min(a, b), std::max(a, b)}, 1.0);
  };
  for (const auto& [key, mult] : elow) {
    (void)mult;
    add(key.first, key.second);
  }
  std::vector<Vertex> cluster(n_);
  std::iota(cluster.begin(), cluster.end(), 0u);
  for (Vertex u = 0; u < n_; ++u) {
    if (low[u]) continue;
    if (in_centers_[u]) continue;  // u is itself a cluster center
    const auto rec = center_bank_.decode(0, u);
    if (!rec.has_value()) {
      ++diag.unattached_high_degree;  // stays a singleton supernode
      continue;
    }
    const auto w = static_cast<Vertex>(rec->coord);
    add(u, w);           // F edge (u, w) is a real edge of G
    cluster[u] = w;
  }

  // 3. G' = G - E_low via sketch linearity (one batch, multiplicities
  // kept); contract clusters; forest.
  std::vector<BankPairUpdate> elow_negated;
  elow_negated.reserve(elow.size());
  for (const auto& [key, mult] : elow) {
    elow_negated.push_back({key.first, key.second,
                            pair_id(key.first, key.second, n_), -mult});
  }
  agm_.ingest_staged(elow_negated);
  const ForestResult forest = agm_spanning_forest(agm_, cluster);
  diag.forest_rounds = forest.rounds_used;
  diag.forest_complete = forest.complete;
  for (const auto& e : forest.edges) add(e.u, e.v);
  {
    std::vector<char> seen(n_, 0);
    for (Vertex v = 0; v < n_; ++v) seen[cluster[v]] = 1;
    diag.clusters = static_cast<std::size_t>(
        std::count(seen.begin(), seen.end(), static_cast<char>(1)));
  }

  Graph spanner(n_);
  for (const auto& [key, w] : edges) {
    spanner.add_edge(key.first, key.second, w);
  }
  result.spanner = std::move(spanner);

  result.nominal_bytes = agm_.nominal_bytes() + center_bank_.nominal_bytes();
  for (Vertex v = 0; v < n_; ++v) {
    result.nominal_bytes +=
        neighborhood_[v].nominal_bytes() + degree_[v].nominal_bytes();
  }
  result_ = std::move(result);
}

AdditiveResult AdditiveSpannerSketch::run(const DynamicStream& stream) {
  if (stream.n() != n_) throw std::invalid_argument("stream size mismatch");
  StreamEngine::run_single(*this, stream);
  return take_result();
}

}  // namespace kw
