#include "engine/processors.h"

#include <stdexcept>

#include "baseline/aingworth_additive.h"
#include "baseline/baswana_sen.h"
#include "baseline/greedy_spanner.h"

namespace kw {

// ---- MaterializeProcessor -------------------------------------------------

void MaterializeProcessor::absorb(std::span<const EdgeUpdate> batch) {
  if (finished_) {
    throw std::logic_error("MaterializeProcessor: absorb() after finish()");
  }
  check_endpoints(batch, n_, "MaterializeProcessor");
  for (const EdgeUpdate& u : batch) {
    if (u.u == u.v) continue;
    const auto key = std::minmax(u.u, u.v);
    auto& entry = net_[{key.first, key.second}];
    entry.first += u.delta;
    entry.second = u.weight;
  }
}

void MaterializeProcessor::advance_pass() {
  throw std::logic_error(
      "MaterializeProcessor: single-pass, advance_pass() is never legal");
}

void MaterializeProcessor::finish() {
  if (finished_) {
    throw std::logic_error("MaterializeProcessor: finish() called twice");
  }
  finished_ = true;
  Graph g(n_);
  for (const auto& [pair, entry] : net_) {
    if (entry.first < 0) {
      throw std::logic_error(
          "MaterializeProcessor: stream yields negative edge multiplicity");
    }
    if (entry.first > 0) g.add_edge(pair.first, pair.second, entry.second);
  }
  net_.clear();
  graph_ = std::move(g);
}

std::unique_ptr<StreamProcessor> MaterializeProcessor::clone_empty() const {
  if (finished_) return nullptr;
  return std::make_unique<MaterializeProcessor>(n_);
}

void MaterializeProcessor::merge(StreamProcessor&& other) {
  auto& o = merge_cast<MaterializeProcessor>(other);
  if (o.n_ != n_) {
    throw std::invalid_argument("MaterializeProcessor::merge: n mismatch");
  }
  for (const auto& [pair, entry] : o.net_) {
    auto& mine = net_[pair];
    mine.first += entry.first;
    mine.second = entry.second;
  }
}

const Graph& MaterializeProcessor::graph() const {
  if (!finished_) {
    throw std::logic_error(
        "MaterializeProcessor: graph() unavailable before finish()");
  }
  return graph_;
}

// ---- OfflineBaselineProcessor ---------------------------------------------

void OfflineBaselineProcessor::finish() {
  MaterializeProcessor::finish();
  result_ = algorithm_(graph());
  ran_ = true;
}

std::unique_ptr<StreamProcessor> OfflineBaselineProcessor::clone_empty()
    const {
  if (ran_) return nullptr;
  // Shards only accumulate multiplicities; the offline algorithm runs once,
  // on the merged primary.
  return std::make_unique<MaterializeProcessor>(n());
}

const Graph& OfflineBaselineProcessor::result() const {
  if (!ran_) {
    throw std::logic_error(
        "OfflineBaselineProcessor: result() unavailable before finish()");
  }
  return result_;
}

std::unique_ptr<OfflineBaselineProcessor> greedy_spanner_processor(
    Vertex n, unsigned k) {
  return std::make_unique<OfflineBaselineProcessor>(
      n, [k](const Graph& g) { return greedy_spanner(g, k); });
}

std::unique_ptr<OfflineBaselineProcessor> baswana_sen_processor(
    Vertex n, unsigned k, std::uint64_t seed) {
  return std::make_unique<OfflineBaselineProcessor>(
      n, [k, seed](const Graph& g) { return baswana_sen_spanner(g, k, seed); });
}

std::unique_ptr<OfflineBaselineProcessor> aingworth_additive_processor(
    Vertex n, std::uint64_t seed) {
  return std::make_unique<OfflineBaselineProcessor>(
      n, [seed](const Graph& g) { return aingworth_additive_spanner(g, seed); });
}

// ---- DemuxProcessor -------------------------------------------------------

DemuxProcessor::DemuxProcessor(std::vector<StreamProcessor*> lanes,
                               Selector selector)
    : lanes_(std::move(lanes)),
      selector_(std::move(selector)),
      buffers_(lanes_.size()) {
  if (lanes_.empty()) {
    throw std::invalid_argument("DemuxProcessor: needs at least one lane");
  }
  for (const StreamProcessor* lane : lanes_) {
    if (lane->n() != lanes_.front()->n() ||
        lane->passes_required() != lanes_.front()->passes_required()) {
      throw std::invalid_argument(
          "DemuxProcessor: lanes must share n and passes_required");
    }
  }
}

DemuxProcessor::DemuxProcessor(
    std::vector<std::unique_ptr<StreamProcessor>> owned, Selector selector)
    : owned_(std::move(owned)),
      selector_(std::move(selector)),
      buffers_(owned_.size()) {
  lanes_.reserve(owned_.size());
  for (auto& lane : owned_) lanes_.push_back(lane.get());
}

void DemuxProcessor::absorb(std::span<const EdgeUpdate> batch) {
  // Checked here, not only in the lanes: a bad update routed to a later
  // lane must not leave the earlier lanes holding their share.
  check_endpoints(batch, n(), "DemuxProcessor");
  if (lanes_.size() == 1) {
    // Single-lane demux (e.g. a weighted run whose weights all land in one
    // class): when no update is dropped (selector index >= lane count drops,
    // per the class contract), hand the batch through without the buffering
    // copy -- the lane's batched ingest sees the full span either way.
    std::size_t keep = 0;
    while (keep < batch.size() && selector_(batch[keep]) == 0) ++keep;
    if (keep == batch.size()) {
      lanes_.front()->absorb(batch);
      return;
    }
    // Some update routes off-lane: fall through to the exact buffered path.
  }
  for (auto& buffer : buffers_) buffer.clear();
  for (const EdgeUpdate& u : batch) {
    const std::size_t lane = selector_(u);
    if (lane < buffers_.size()) buffers_[lane].push_back(u);
  }
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    if (!buffers_[lane].empty()) lanes_[lane]->absorb(buffers_[lane]);
  }
}

void DemuxProcessor::advance_pass() {
  for (StreamProcessor* lane : lanes_) lane->advance_pass();
}

void DemuxProcessor::finish() {
  for (StreamProcessor* lane : lanes_) lane->finish();
}

ProcessorHealth DemuxProcessor::health() const {
  ProcessorHealth h;
  h.name = "Demux";
  for (const StreamProcessor* lane : lanes_) {
    const ProcessorHealth lane_health = lane->health();
    h.sparse_recovery_failures += lane_health.sparse_recovery_failures;
    h.l0_failures += lane_health.l0_failures;
    h.kv_failures += lane_health.kv_failures;
    h.failures_per_round.push_back(lane_health.total_failures());
    h.degraded = h.degraded || lane_health.degraded;
  }
  return h;
}

std::unique_ptr<StreamProcessor> DemuxProcessor::clone_empty() const {
  std::vector<std::unique_ptr<StreamProcessor>> clones;
  clones.reserve(lanes_.size());
  for (const StreamProcessor* lane : lanes_) {
    std::unique_ptr<StreamProcessor> clone = lane->clone_empty();
    if (clone == nullptr) return nullptr;
    clones.push_back(std::move(clone));
  }
  return std::unique_ptr<StreamProcessor>(
      new DemuxProcessor(std::move(clones), selector_));
}

std::size_t DemuxProcessor::shard_affinity(
    const EdgeUpdate& update, std::size_t shards) const noexcept {
  return lanes_.front()->shard_affinity(update, shards);
}

void DemuxProcessor::use_worker_pool(std::shared_ptr<WorkerPool> pool,
                                     std::size_t decode_lanes) {
  for (StreamProcessor* lane : lanes_) {
    lane->use_worker_pool(pool, decode_lanes);
  }
}

void DemuxProcessor::merge(StreamProcessor&& other) {
  auto& o = merge_cast<DemuxProcessor>(other);
  if (o.lanes_.size() != lanes_.size()) {
    throw std::invalid_argument("DemuxProcessor::merge: lane count mismatch");
  }
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    lanes_[lane]->merge(std::move(*o.lanes_[lane]));
  }
}

}  // namespace kw
