#include "core/multipass_spanner.h"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "engine/stream_engine.h"
#include "util/hashing.h"
#include "util/random.h"

namespace kw {

namespace {

constexpr Vertex kUnclustered = kInvalidVertex;

[[nodiscard]] BankGroupConfig sampler_config(Vertex n,
                                             const MultipassConfig& config,
                                             unsigned phase) {
  BankGroupConfig c;
  c.max_coord = num_pairs(n);
  c.instances = config.sampler_instances;
  c.seeds = {derive_seed(config.seed, 0xbb00 + phase)};
  return c;
}

[[nodiscard]] LinearKvConfig table_config(Vertex n,
                                          const MultipassConfig& config,
                                          unsigned phase) {
  LinearKvConfig c;
  c.max_key = n;                    // keys are cluster center ids
  c.max_payload_coord = num_pairs(n);  // payload recovers a concrete edge
  const double nd = static_cast<double>(n);
  c.capacity = static_cast<std::size_t>(std::ceil(
      config.table_capacity_factor * std::pow(nd, 1.0 / config.k) *
      std::max(1.0, std::log2(nd))));
  c.seed = derive_seed(config.seed, 0xbc00 + phase);
  return c;
}

}  // namespace

MultipassSpanner::MultipassSpanner(Vertex n, const MultipassConfig& config)
    : n_(n), config_(config) {
  if (config.k == 0) throw std::invalid_argument("k must be >= 1");
  cluster_of_.resize(n_);
  for (Vertex v = 0; v < n_; ++v) cluster_of_[v] = v;
  survive_rate_ = std::pow(static_cast<double>(n_), -1.0 / config_.k);
  begin_phase();
}

MultipassSpanner::MultipassSpanner(const MultipassSpanner& other,
                                   EmptyCloneTag)
    : n_(other.n_),
      config_(other.config_),
      phase_(other.phase_),
      survive_rate_(other.survive_rate_),
      cluster_of_(other.cluster_of_),
      survives_(other.survives_) {
  // Clustering decisions (cluster_of_, survives_) are fixed before each
  // pass; only the linear per-vertex sketches accumulate during it, and
  // they are seed-determined by (config, phase), so fresh ones are the
  // zero state with matching randomness.  edges_ / result counters live on
  // the primary alone -- clones never re-home.
  make_phase_sketches();
}

void MultipassSpanner::make_phase_sketches() {
  to_sampled_ = BankGroup(n_, sampler_config(n_, config_, phase_));
  // Every vertex's table is a one-level bank on ONE phase geometry (all
  // vertices use the phase seed): copies of the prototype share it.  The
  // geometry stays unstaged -- the payload space is num_pairs(n).
  per_cluster_.assign(
      n_, KvTableBank(table_config(n_, config_, phase_), /*levels=*/1));
}

void MultipassSpanner::begin_phase() {
  const bool final_phase = phase_ == config_.k;
  // Surviving centers, decided before the pass (shared randomness).
  survives_.assign(n_, 0);
  if (!final_phase) {
    const KWiseHash survive_hash(8,
                                 derive_seed(config_.seed, 0xbd00 + phase_));
    for (Vertex c = 0; c < n_; ++c) {
      survives_[c] = survive_hash.unit(c) < survive_rate_ ? 1 : 0;
    }
  }
  make_phase_sketches();
}

void MultipassSpanner::absorb(std::span<const EdgeUpdate> batch) {
  if (finished_) {
    throw std::logic_error("MultipassSpanner: absorb() after finish()");
  }
  check_endpoints(batch, n_, "MultipassSpanner");
  const bool final_phase = phase_ == config_.k;
  // Re-homing sampler updates are gathered into a reused staging buffer and
  // fed through the bank's fused batched path (one hash sweep per instance,
  // vertex-grouped scatter) instead of one scalar update per endpoint.
  sampler_staging_.clear();
  for (const EdgeUpdate& upd : batch) {
    if (upd.u == upd.v) continue;
    const std::uint64_t coord = pair_id(upd.u, upd.v, n_);
    // Each endpoint files the edge under the *other* endpoint's current
    // cluster (known before the pass).
    for (int side = 0; side < 2; ++side) {
      const Vertex v = side == 0 ? upd.u : upd.v;
      const Vertex u = side == 0 ? upd.v : upd.u;
      const Vertex cu = cluster_of_[u];
      if (cu == kUnclustered) continue;   // u already settled
      if (cu == cluster_of_[v]) continue;  // intra-cluster edge
      if (!final_phase && survives_[cu] != 0) {
        sampler_staging_.push_back({v, coord, upd.delta});
      }
      per_cluster_[v].update(cu, upd.delta, coord, upd.delta, /*jmax=*/0);
    }
  }
  to_sampled_.ingest_updates(sampler_staging_);
}

void MultipassSpanner::add_pair(std::uint64_t pair_coord) {
  const auto [a, b] = pair_from_id(pair_coord, n_);
  edges_.try_emplace({a, b}, 1.0);
}

void MultipassSpanner::rehome() {
  const bool final_phase = phase_ == config_.k;
  ++passes_done_;
  nominal_bytes_ += to_sampled_.nominal_bytes() +
                    n_ * KvTableBank::nominal_bytes(
                             table_config(n_, config_, phase_), /*levels=*/1);

  std::vector<Vertex> next_cluster = cluster_of_;
  for (Vertex v = 0; v < n_; ++v) {
    const Vertex cv = cluster_of_[v];
    if (cv == kUnclustered) continue;
    if (!final_phase && survives_[cv] != 0) continue;  // cluster survives
    // Try to join a sampled neighboring cluster through one edge.
    if (!final_phase) {
      const auto rec = to_sampled_.decode(0, v);
      if (rec.has_value()) {
        add_pair(rec->coord);
        const auto [a, b] = pair_from_id(rec->coord, n_);
        const Vertex other = a == v ? b : a;
        next_cluster[v] = cluster_of_[other];
        continue;
      }
    }
    // No sampled neighbor (or final phase): one edge per neighboring
    // cluster, then leave the clustering.
    const KvTableBank& table = per_cluster_[v];
    (void)table.decode_levels(
        [&](std::size_t, const std::optional<std::vector<KvEntry>>& decoded) {
          if (!decoded.has_value()) {
            ++unrecovered_;
            return;
          }
          for (const KvEntry& entry : *decoded) {
            const auto support = table.decode_payload(entry);
            if (support.has_value() && !support->empty()) {
              add_pair(support->front().coord);
            } else {
              ++unrecovered_;
            }
          }
        });
    next_cluster[v] = kUnclustered;
  }
  cluster_of_ = std::move(next_cluster);
}

void MultipassSpanner::advance_pass() {
  if (finished_ || phase_ >= config_.k) {
    throw std::logic_error(
        "MultipassSpanner: advance_pass() beyond the declared k passes");
  }
  rehome();
  ++phase_;
  begin_phase();
}

void MultipassSpanner::finish() {
  if (finished_) {
    throw std::logic_error("MultipassSpanner: finish() called twice");
  }
  if (phase_ != config_.k) {
    throw std::logic_error(
        "MultipassSpanner: finish() before the final clustering phase");
  }
  rehome();
  finished_ = true;

  MultipassResult result;
  Graph spanner(n_);
  for (const auto& [key, w] : edges_) {
    spanner.add_edge(key.first, key.second, w);
  }
  result.spanner = std::move(spanner);
  result.passes_used = passes_done_;
  result.nominal_bytes = nominal_bytes_;
  result.unrecovered = unrecovered_;
  result_ = std::move(result);
}

std::unique_ptr<StreamProcessor> MultipassSpanner::clone_empty() const {
  if (finished_) return nullptr;
  return std::unique_ptr<StreamProcessor>(
      new MultipassSpanner(*this, EmptyCloneTag{}));
}

void MultipassSpanner::merge(StreamProcessor&& other) {
  auto& o = merge_cast<MultipassSpanner>(other);
  if (o.n_ != n_ || o.config_.seed != config_.seed || o.phase_ != phase_ ||
      o.finished_ || finished_) {
    throw std::invalid_argument(
        "MultipassSpanner::merge: incompatible instance (n/seed/phase)");
  }
  to_sampled_.merge(o.to_sampled_, 1);
  for (Vertex v = 0; v < n_; ++v) {
    per_cluster_[v].merge(o.per_cluster_[v], 1);
  }
}

MultipassResult MultipassSpanner::take_result() {
  if (!result_.has_value()) {
    throw std::logic_error(
        "MultipassSpanner: result unavailable (finish() not reached or "
        "result already taken)");
  }
  MultipassResult out = std::move(*result_);
  result_.reset();
  return out;
}

MultipassResult MultipassSpanner::run(const DynamicStream& stream) {
  StreamEngine::run_single(*this, stream);
  return take_result();
}

MultipassResult multipass_baswana_sen(const DynamicStream& stream,
                                      const MultipassConfig& config) {
  MultipassSpanner spanner(stream.n(), config);
  return spanner.run(stream);
}

}  // namespace kw
