// serialize()/deserialize() members of the engine-facing processors:
// SpanningForestProcessor, KConnectivitySketch, AdditiveSpannerSketch,
// DemuxProcessor.
//
// Single-pass processors serialize their sketch state plus an optional
// finished result (checkpoints always land mid-pass, but a saved finished
// forest/certificate costs little and makes save() total).  The demux
// serializes as the ordered list of its lanes' payloads, each length-framed
// so a corrupt lane cannot bleed into its successors.
#include <vector>

#include "agm/k_connectivity.h"
#include "agm/spanning_forest.h"
#include "core/additive_spanner.h"
#include "engine/processors.h"
#include "serialize/serialize.h"

namespace kw {

namespace {

void put_edge_list(ser::Writer& w, const std::vector<Edge>& edges) {
  w.u64(edges.size());
  for (const Edge& e : edges) {
    w.u32(e.u);
    w.u32(e.v);
    w.f64(e.weight);
  }
}

// Reads a put_edge_list() record whose endpoints must lie in [0, n).
void get_edge_list(ser::Reader& r, std::vector<Edge>& edges, Vertex n) {
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / 16) {
    throw ser::SerializeError("edge list longer than the remaining payload");
  }
  edges.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    edges[i].u = r.u32();
    edges[i].v = r.u32();
    edges[i].weight = r.f64();
    if (edges[i].u >= n || edges[i].v >= n) {
      throw ser::SerializeError("edge list endpoint out of range");
    }
  }
}

}  // namespace

// ---- SpanningForestProcessor --------------------------------------------

std::uint32_t SpanningForestProcessor::serial_tag() const noexcept {
  return ser::kTagSpanningForest;
}

void SpanningForestProcessor::serialize(ser::Writer& w) const {
  w.begin_section("forest.header");
  w.u64(config_.rounds);
  w.u64(config_.sampler_instances);
  w.u64(config_.seed);
  ser::put_u32_vector(w, partition_);
  w.end_section();
  w.begin_section("forest.result");
  w.u8(finished_ ? 1 : 0);
  w.u8(result_.has_value() ? 1 : 0);
  if (result_.has_value()) {
    put_edge_list(w, result_->edges);
    w.u64(result_->rounds_used);
    w.u8(result_->complete ? 1 : 0);
  }
  w.end_section();
  sketch_.serialize(w);
}

void SpanningForestProcessor::deserialize(ser::Reader& r) {
  ser::check_field(r.u64(), config_.rounds, "SpanningForest rounds");
  ser::check_field(r.u64(), config_.sampler_instances,
                   "SpanningForest sampler_instances");
  ser::check_field(r.u64(), config_.seed, "SpanningForest seed");
  std::vector<std::uint32_t> stored_partition;
  ser::get_u32_vector(r, stored_partition);
  if (stored_partition != partition_) {
    throw ser::SerializeError(
        "stored SpanningForest partition does not match the destination");
  }
  finished_ = r.u8() != 0;
  if (r.u8() != 0) {
    ForestResult res;
    get_edge_list(r, res.edges, sketch_.n());
    res.rounds_used = static_cast<std::size_t>(r.u64());
    res.complete = r.u8() != 0;
    result_ = std::move(res);
  } else {
    result_.reset();
  }
  sketch_.deserialize(r);
}

// ---- KConnectivitySketch ------------------------------------------------

std::uint32_t KConnectivitySketch::serial_tag() const noexcept {
  return ser::kTagKConnectivity;
}

void KConnectivitySketch::serialize(ser::Writer& w) const {
  w.begin_section("k_connectivity.header");
  w.u32(n_);
  w.u64(k_);
  w.u64(config_.rounds);
  w.u64(config_.sampler_instances);
  w.u64(config_.seed);
  w.end_section();
  w.begin_section("k_connectivity.result");
  w.u8(finished_ ? 1 : 0);
  w.u8(result_.has_value() ? 1 : 0);
  if (result_.has_value()) {
    w.u64(result_->forests.size());
    for (const std::vector<Edge>& forest : result_->forests) {
      put_edge_list(w, forest);
    }
    ser::put_graph(w, result_->certificate);
    w.u8(result_->complete ? 1 : 0);
  }
  w.end_section();
  group_.serialize(w);
}

void KConnectivitySketch::deserialize(ser::Reader& r) {
  ser::check_field(r.u32(), n_, "KConnectivity n");
  ser::check_field(r.u64(), k_, "KConnectivity k");
  ser::check_field(r.u64(), config_.rounds, "KConnectivity rounds");
  ser::check_field(r.u64(), config_.sampler_instances,
                   "KConnectivity sampler_instances");
  ser::check_field(r.u64(), config_.seed, "KConnectivity seed");
  finished_ = r.u8() != 0;
  if (r.u8() != 0) {
    KConnectivityResult res;
    const std::uint64_t forests = r.u64();
    if (forests > k_) {
      throw ser::SerializeError("KConnectivity result holds more forests "
                                "than layers");
    }
    res.forests.resize(forests);
    for (std::vector<Edge>& forest : res.forests) {
      get_edge_list(r, forest, n_);
    }
    res.certificate = ser::get_graph(r, n_);
    res.complete = r.u8() != 0;
    result_ = std::move(res);
  } else {
    result_.reset();
  }
  group_.deserialize(r);
}

// ---- AdditiveSpannerSketch ----------------------------------------------

std::uint32_t AdditiveSpannerSketch::serial_tag() const noexcept {
  return ser::kTagAdditive;
}

void AdditiveSpannerSketch::serialize(ser::Writer& w) const {
  if (finished_) {
    throw ser::SerializeError(
        "AdditiveSpannerSketch: a finished sketch's state lives in its "
        "result");
  }
  w.begin_section("additive.header");
  w.u32(n_);
  w.f64(config_.d);
  w.u64(config_.seed);
  w.f64(config_.threshold_factor);
  w.f64(config_.center_rate_factor);
  w.f64(config_.budget_slack);
  w.f64(config_.degree_epsilon);
  w.u64(config_.degree_repetitions);
  w.u64(config_.agm_rounds);
  w.u64(config_.agm_instances);
  w.end_section();
  for (const SparseRecoverySketch& s : neighborhood_) s.serialize(w);
  // The center bank's config header, written ahead of the bank for wire
  // compatibility with checkpoints from when it was a standalone class.
  w.begin_section("additive.center_header");
  w.u64(center_bank_.max_coord());
  w.u64(center_bank_.instances());
  w.u64(center_bank_.seeds()[0]);
  w.end_section();
  center_bank_.serialize(w);
  for (const DistinctElementsSketch& s : degree_) s.serialize(w);
  agm_.serialize(w);
}

void AdditiveSpannerSketch::deserialize(ser::Reader& r) {
  ser::check_field(r.u32(), n_, "AdditiveSpanner n");
  ser::check_f64_field(r.f64(), config_.d, "AdditiveSpanner d");
  ser::check_field(r.u64(), config_.seed, "AdditiveSpanner seed");
  ser::check_f64_field(r.f64(), config_.threshold_factor,
                       "AdditiveSpanner threshold_factor");
  ser::check_f64_field(r.f64(), config_.center_rate_factor,
                       "AdditiveSpanner center_rate_factor");
  ser::check_f64_field(r.f64(), config_.budget_slack,
                       "AdditiveSpanner budget_slack");
  ser::check_f64_field(r.f64(), config_.degree_epsilon,
                       "AdditiveSpanner degree_epsilon");
  ser::check_field(r.u64(), config_.degree_repetitions,
                   "AdditiveSpanner degree_repetitions");
  ser::check_field(r.u64(), config_.agm_rounds, "AdditiveSpanner agm_rounds");
  ser::check_field(r.u64(), config_.agm_instances,
                   "AdditiveSpanner agm_instances");
  finished_ = false;
  result_.reset();
  for (SparseRecoverySketch& s : neighborhood_) s.deserialize(r);
  ser::check_field(r.u64(), center_bank_.max_coord(),
                   "AdditiveSpanner center max_coord");
  ser::check_field(r.u64(), center_bank_.instances(),
                   "AdditiveSpanner center instances");
  ser::check_field(r.u64(), center_bank_.seeds()[0],
                   "AdditiveSpanner center seed");
  center_bank_.deserialize(r);
  for (DistinctElementsSketch& s : degree_) s.deserialize(r);
  agm_.deserialize(r);
}

// ---- DemuxProcessor -----------------------------------------------------

std::uint32_t DemuxProcessor::serial_tag() const noexcept {
  return ser::kTagDemux;
}

void DemuxProcessor::serialize(ser::Writer& w) const {
  w.begin_section("demux.header");
  w.u64(lanes_.size());
  w.end_section();
  for (const StreamProcessor* lane : lanes_) {
    const std::uint32_t tag = lane->serial_tag();
    if (tag == 0) {
      throw ser::SerializeError("DemuxProcessor lane is not serializable");
    }
    ser::Writer lane_writer;
    lane->serialize(lane_writer);
    w.begin_section("demux.lane");
    w.u32(tag);
    w.u64(lane_writer.buffer().size());
    w.bytes(lane_writer.buffer().data(), lane_writer.buffer().size());
    w.end_section();
  }
}

void DemuxProcessor::deserialize(ser::Reader& r) {
  ser::check_field(r.u64(), lanes_.size(), "DemuxProcessor lane count");
  for (StreamProcessor* lane : lanes_) {
    const std::uint32_t stored_tag = r.u32();
    if (stored_tag != lane->serial_tag()) {
      throw ser::SerializeError(
          "DemuxProcessor lane type mismatch: file holds '" +
          ser::tag_name(stored_tag) + "', lane is '" +
          ser::tag_name(lane->serial_tag()) + "'");
    }
    const std::uint64_t len = r.u64();
    ser::Reader sub = r.sub(len);
    lane->deserialize(sub);
    sub.expect_end();
  }
}

}  // namespace kw
