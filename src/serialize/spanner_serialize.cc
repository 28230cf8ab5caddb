// serialize()/deserialize() members of the spanner layer: ClusterForest,
// TwoPassSpanner, Kp12Sparsifier, MultipassSpanner.
//
// The spanner payloads are phase-dependent: pass-1 state is the lazy page
// fleet of S^r_j(u) cells, pass-2 state is the built cluster forest plus
// the H^u_j table contents (every derived structure -- terminals, member
// CSR, Y_j caps, empty tables -- is recomputed from the forest by
// prepare_pass2_structures(), exactly as finish_pass1() does).  A finished
// instance's state lives in its result; serializing one throws.
#include <algorithm>
#include <utility>
#include <vector>

#include "core/cluster_forest.h"
#include "core/kp12_sparsifier.h"
#include "core/multipass_spanner.h"
#include "core/two_pass_spanner.h"
#include "serialize/serialize.h"

namespace kw {

namespace {

void put_edge(ser::Writer& w, const Edge& e) {
  w.u32(e.u);
  w.u32(e.v);
  w.f64(e.weight);
}

[[nodiscard]] Edge get_edge(ser::Reader& r) {
  Edge e;
  e.u = r.u32();
  e.v = r.u32();
  e.weight = r.f64();
  return e;
}

void put_size_vector(ser::Writer& w, const std::vector<std::size_t>& v) {
  w.u64(v.size());
  for (const std::size_t x : v) w.u64(x);
}

void get_size_vector(ser::Reader& r, std::vector<std::size_t>& v) {
  const std::uint64_t count = r.u64();
  if (count * 8 > r.remaining()) {
    throw ser::SerializeError("size vector longer than the remaining payload");
  }
  v.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    v[i] = static_cast<std::size_t>(r.u64());
  }
}

void put_edge_map(ser::Writer& w,
                  const std::map<std::pair<Vertex, Vertex>, double>& edges) {
  w.u64(edges.size());
  for (const auto& [key, weight] : edges) {
    w.u32(key.first);
    w.u32(key.second);
    w.f64(weight);
  }
}

void get_edge_map(ser::Reader& r, Vertex n,
                  std::map<std::pair<Vertex, Vertex>, double>& edges) {
  edges.clear();
  const std::uint64_t count = r.u64();
  if (count * 16 > r.remaining()) {
    throw ser::SerializeError("edge map longer than the remaining payload");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const Vertex a = r.u32();
    const Vertex b = r.u32();
    const double weight = r.f64();
    if (a >= n || b >= n) {
      throw ser::SerializeError("edge map endpoint out of range");
    }
    edges.emplace(std::make_pair(a, b), weight);
  }
}

}  // namespace

// ---- ClusterForest ------------------------------------------------------

void ClusterForest::serialize(ser::Writer& w) const {
  w.begin_section("cluster_forest");
  w.u32(hierarchy_.n);
  w.u32(hierarchy_.k);
  w.u8(built_ ? 1 : 0);
  for (unsigned i = 0; i < hierarchy_.k; ++i) {
    for (Vertex v = 0; v < hierarchy_.n; ++v) w.u32(parent_[i][v]);
    for (Vertex v = 0; v < hierarchy_.n; ++v) put_edge(w, witness_[i][v]);
    if (hierarchy_.n > 0) {
      w.bytes(terminal_[i].data(), hierarchy_.n);
    }
    for (Vertex v = 0; v < hierarchy_.n; ++v) {
      const std::vector<Vertex>& members = members_[i][v];
      w.u64(members.size());
      for (const Vertex m : members) w.u32(m);
    }
  }
  w.end_section();
}

void ClusterForest::deserialize(ser::Reader& r) {
  ser::check_field(r.u32(), hierarchy_.n, "ClusterForest n");
  ser::check_field(r.u32(), hierarchy_.k, "ClusterForest k");
  built_ = r.u8() != 0;
  for (unsigned i = 0; i < hierarchy_.k; ++i) {
    for (Vertex v = 0; v < hierarchy_.n; ++v) {
      const Vertex p = r.u32();
      if (p != kInvalidVertex && p >= hierarchy_.n) {
        throw ser::SerializeError("ClusterForest parent out of range");
      }
      parent_[i][v] = p;
    }
    for (Vertex v = 0; v < hierarchy_.n; ++v) witness_[i][v] = get_edge(r);
    if (hierarchy_.n > 0) {
      r.bytes(terminal_[i].data(), hierarchy_.n);
    }
    for (Vertex v = 0; v < hierarchy_.n; ++v) {
      const std::uint64_t count = r.u64();
      if (count * 4 > r.remaining()) {
        throw ser::SerializeError(
            "ClusterForest member list longer than the remaining payload");
      }
      std::vector<Vertex>& members = members_[i][v];
      members.resize(count);
      for (std::uint64_t m = 0; m < count; ++m) {
        const Vertex x = r.u32();
        if (x >= hierarchy_.n) {
          throw ser::SerializeError("ClusterForest member out of range");
        }
        members[m] = x;
      }
    }
  }
}

// ---- TwoPassSpanner -----------------------------------------------------

std::uint32_t TwoPassSpanner::serial_tag() const noexcept {
  return ser::kTagTwoPassSpanner;
}

void TwoPassSpanner::serialize(ser::Writer& w) const {
  if (phase_ != Phase::kPass1 && phase_ != Phase::kPass2) {
    throw ser::SerializeError(
        "TwoPassSpanner: only pass-1 or pass-2 state is serializable (a "
        "finished spanner's state lives in its result)");
  }
  w.begin_section("two_pass.header");
  w.u32(n_);
  w.u32(config_.k);
  w.u64(config_.seed);
  w.u64(config_.pass1_budget);
  w.u64(config_.pass1_rows);
  w.f64(config_.table_capacity_factor);
  w.u64(config_.kv_tables);
  w.f64(config_.kv_load_factor);
  w.u64(config_.table_payload_budget);
  w.u64(config_.table_payload_rows);
  w.u8(config_.y_half_octave ? 1 : 0);
  w.u8(config_.augmented ? 1 : 0);
  w.u64(edge_levels_);
  w.u64(vertex_levels_);
  w.u64(pass1_cell_count_);
  w.u32(phase_ == Phase::kPass1 ? 1 : 2);
  w.end_section();

  if (phase_ == Phase::kPass1) {
    w.begin_section("two_pass.pass1_meta");
    w.u64(diagnostics_.pass1_sketches_touched);
    w.u64(diagnostics_.pass1_scan_failures);
    w.end_section();
    for (const Pass1Page& page : pass1_pages_) {
      const bool materialized = page_live(page);
      w.u8(materialized ? 1 : 0);
      if (!materialized) continue;
      // Arena blocks are contiguous and page-sized, so the wire stream is
      // identical to the historical per-page vectors.
      w.bytes(page_flags(page), n_);
      ser::write_cells(
          w, {page_cells(page), static_cast<std::size_t>(n_) *
                                    pass1_cell_count_},
          "two_pass.page");
    }
    return;
  }

  forest_->serialize(w);
  w.begin_section("two_pass.pass2_meta");
  w.u64(diagnostics_.pass1_sketches_touched);
  w.u64(diagnostics_.pass1_scan_failures);
  w.u64(diagnostics_.pass2_tables_undecodable);
  w.u64(diagnostics_.pass2_neighbors_unrecovered);
  put_size_vector(w, diagnostics_.terminals_per_level);
  w.u64(pass1_touched_bytes_);
  put_edge_map(w, augmented_);
  w.u64(terminals_.size());
  w.end_section();
  // Lazy bank fleet: a presence flag per terminal, state only for banks a
  // pass-2 update actually materialized.
  for (const auto& bank : banks_) {
    w.u8(bank ? 1 : 0);
    if (bank) bank->serialize_state(w);
  }
}

void TwoPassSpanner::deserialize(ser::Reader& r) {
  ser::check_field(r.u32(), n_, "TwoPassSpanner n");
  ser::check_field(r.u32(), config_.k, "TwoPassSpanner k");
  ser::check_field(r.u64(), config_.seed, "TwoPassSpanner seed");
  ser::check_field(r.u64(), config_.pass1_budget, "TwoPassSpanner budget");
  ser::check_field(r.u64(), config_.pass1_rows, "TwoPassSpanner rows");
  ser::check_f64_field(r.f64(), config_.table_capacity_factor,
                       "TwoPassSpanner table_capacity_factor");
  ser::check_field(r.u64(), config_.kv_tables, "TwoPassSpanner kv_tables");
  ser::check_f64_field(r.f64(), config_.kv_load_factor,
                       "TwoPassSpanner kv_load_factor");
  ser::check_field(r.u64(), config_.table_payload_budget,
                   "TwoPassSpanner payload_budget");
  ser::check_field(r.u64(), config_.table_payload_rows,
                   "TwoPassSpanner payload_rows");
  ser::check_field(r.u8(), config_.y_half_octave ? 1 : 0,
                   "TwoPassSpanner y_half_octave");
  ser::check_field(r.u8(), config_.augmented ? 1 : 0,
                   "TwoPassSpanner augmented");
  ser::check_field(r.u64(), edge_levels_, "TwoPassSpanner edge_levels");
  ser::check_field(r.u64(), vertex_levels_, "TwoPassSpanner vertex_levels");
  ser::check_field(r.u64(), pass1_cell_count_,
                   "TwoPassSpanner pass1_cell_count");
  const std::uint32_t stored_phase = r.u32();
  if (stored_phase != 1 && stored_phase != 2) {
    throw ser::SerializeError("TwoPassSpanner: unknown stored phase " +
                              std::to_string(stored_phase));
  }

  diagnostics_ = {};
  augmented_.clear();
  result_.reset();

  if (stored_phase == 1) {
    phase_ = Phase::kPass1;
    forest_.reset();
    terminals_.clear();
    terminal_of_vertex_.clear();
    tree_at_level_.clear();
    banks_.clear();
    pass1_touched_bytes_ = 0;
    diagnostics_.pass1_sketches_touched = static_cast<std::size_t>(r.u64());
    diagnostics_.pass1_scan_failures = static_cast<std::size_t>(r.u64());
    page_arena_.reset();
    touch_arena_.reset();
    for (Pass1Page& page : pass1_pages_) {
      const bool materialized = r.u8() != 0;
      if (!materialized) {
        page = Pass1Page{};
        continue;
      }
      page.touched = touch_arena_.allocate(n_);
      r.bytes(page_flags(page), n_);
      page.cells = page_arena_.allocate(static_cast<std::size_t>(n_) *
                                        pass1_cell_count_);
      ser::read_cells(r, {page_cells(page), static_cast<std::size_t>(n_) *
                                                pass1_cell_count_});
    }
    return;
  }

  forest_.emplace(geo_->hierarchy);
  forest_->deserialize(r);
  diagnostics_.pass1_sketches_touched = static_cast<std::size_t>(r.u64());
  diagnostics_.pass1_scan_failures = static_cast<std::size_t>(r.u64());
  diagnostics_.pass2_tables_undecodable = static_cast<std::size_t>(r.u64());
  diagnostics_.pass2_neighbors_unrecovered = static_cast<std::size_t>(r.u64());
  get_size_vector(r, diagnostics_.terminals_per_level);
  pass1_touched_bytes_ = static_cast<std::size_t>(r.u64());
  get_edge_map(r, n_, augmented_);
  // Rebuild every pass-2 structure from the loaded forest (banks all null),
  // then materialize exactly the banks the writer had.
  prepare_pass2_structures();
  ser::check_field(r.u64(), terminals_.size(), "TwoPassSpanner terminals");
  for (std::size_t t = 0; t < terminals_.size(); ++t) {
    if (r.u8() != 0) bank_for(t).deserialize_state(r);
  }
  for (Pass1Page& page : pass1_pages_) page = Pass1Page{};
  page_arena_.reset();
  touch_arena_.reset();
  phase_ = Phase::kPass2;
}

// ---- Kp12Sparsifier -----------------------------------------------------

std::uint32_t Kp12Sparsifier::serial_tag() const noexcept {
  return ser::kTagKp12;
}

void Kp12Sparsifier::serialize(ser::Writer& w) const {
  if (phase_ == Phase::kDone) {
    throw ser::SerializeError(
        "Kp12Sparsifier: a finished sparsifier's state lives in its result");
  }
  w.begin_section("kp12.header");
  w.u32(n_);
  w.u32(config_.k);
  w.f64(config_.epsilon);
  w.u64(config_.seed);
  w.u64(config_.j_copies);
  w.u64(config_.t_levels);
  w.f64(config_.xi_threshold_fraction);
  w.u64(config_.z_samples);
  w.u64(t_levels_);
  w.u64(h_levels_);
  w.u32(phase_ == Phase::kPass1 ? 1 : 2);
  w.u8(initialized_ ? 1 : 0);
  w.end_section();
  if (!initialized_) return;
  for (const auto& row : oracles_) {
    for (const TwoPassSpanner& o : row) o.serialize(w);
  }
  for (const auto& row : samplers_) {
    for (const TwoPassSpanner& a : row) a.serialize(w);
  }
}

void Kp12Sparsifier::deserialize(ser::Reader& r) {
  ser::check_field(r.u32(), n_, "Kp12Sparsifier n");
  ser::check_field(r.u32(), config_.k, "Kp12Sparsifier k");
  ser::check_f64_field(r.f64(), config_.epsilon, "Kp12Sparsifier epsilon");
  ser::check_field(r.u64(), config_.seed, "Kp12Sparsifier seed");
  ser::check_field(r.u64(), config_.j_copies, "Kp12Sparsifier j_copies");
  ser::check_field(r.u64(), config_.t_levels, "Kp12Sparsifier t_levels");
  ser::check_f64_field(r.f64(), config_.xi_threshold_fraction,
                       "Kp12Sparsifier xi_threshold_fraction");
  ser::check_field(r.u64(), config_.z_samples, "Kp12Sparsifier z_samples");
  ser::check_field(r.u64(), t_levels_, "Kp12Sparsifier t ladder");
  ser::check_field(r.u64(), h_levels_, "Kp12Sparsifier h ladder");
  const std::uint32_t stored_phase = r.u32();
  if (stored_phase != 1 && stored_phase != 2) {
    throw ser::SerializeError("Kp12Sparsifier: unknown stored phase " +
                              std::to_string(stored_phase));
  }
  const bool stored_initialized = r.u8() != 0;
  result_.reset();
  if (!stored_initialized) {
    oracles_.clear();
    samplers_.clear();
    initialized_ = false;
    phase_ = stored_phase == 1 ? Phase::kPass1 : Phase::kPass2;
    return;
  }
  // Build the instance fleet without the pass-2 catch-up (each instance's
  // own payload restores its phase along with its state).
  phase_ = Phase::kPass1;
  ensure_instances();
  for (auto& row : oracles_) {
    for (TwoPassSpanner& o : row) o.deserialize(r);
  }
  for (auto& row : samplers_) {
    for (TwoPassSpanner& a : row) a.deserialize(r);
  }
  phase_ = stored_phase == 1 ? Phase::kPass1 : Phase::kPass2;
}

// ---- MultipassSpanner ---------------------------------------------------

std::uint32_t MultipassSpanner::serial_tag() const noexcept {
  return ser::kTagMultipass;
}

void MultipassSpanner::serialize(ser::Writer& w) const {
  if (finished_) {
    throw ser::SerializeError(
        "MultipassSpanner: a finished spanner's state lives in its result");
  }
  w.begin_section("multipass.header");
  w.u32(n_);
  w.u32(config_.k);
  w.u64(config_.seed);
  w.f64(config_.table_capacity_factor);
  w.u64(config_.sampler_instances);
  w.u32(phase_);
  w.end_section();
  w.begin_section("multipass.clustering");
  ser::put_u32_vector(w, cluster_of_);
  put_edge_map(w, edges_);
  w.u64(nominal_bytes_);
  w.u64(unrecovered_);
  w.u64(passes_done_);
  w.end_section();
  // The sampler bank's config header, written ahead of the bank for wire
  // compatibility with checkpoints from when it was a standalone class.
  w.begin_section("multipass.sampler_header");
  w.u64(to_sampled_.max_coord());
  w.u64(to_sampled_.instances());
  w.u64(to_sampled_.seeds()[0]);
  w.end_section();
  to_sampled_.serialize(w);
  for (const KvTableBank& table : per_cluster_) {
    table.serialize_state(w);
  }
}

void MultipassSpanner::deserialize(ser::Reader& r) {
  ser::check_field(r.u32(), n_, "MultipassSpanner n");
  ser::check_field(r.u32(), config_.k, "MultipassSpanner k");
  ser::check_field(r.u64(), config_.seed, "MultipassSpanner seed");
  ser::check_f64_field(r.f64(), config_.table_capacity_factor,
                       "MultipassSpanner table_capacity_factor");
  ser::check_field(r.u64(), config_.sampler_instances,
                   "MultipassSpanner sampler_instances");
  const std::uint32_t stored_phase = r.u32();
  if (stored_phase == 0 || stored_phase > config_.k) {
    throw ser::SerializeError("MultipassSpanner: stored phase " +
                              std::to_string(stored_phase) +
                              " outside [1, k]");
  }
  finished_ = false;
  result_.reset();
  phase_ = stored_phase;
  // Rebuild this phase's survivor set and fresh (zero) sketches with the
  // phase-derived seeds, then overwrite the sketch state below.
  begin_phase();
  ser::get_u32_vector(r, cluster_of_);
  ser::check_field(cluster_of_.size(), static_cast<std::size_t>(n_),
                   "MultipassSpanner clustering size");
  for (const Vertex c : cluster_of_) {
    if (c != kInvalidVertex && c >= n_) {
      throw ser::SerializeError("MultipassSpanner cluster center out of range");
    }
  }
  get_edge_map(r, n_, edges_);
  nominal_bytes_ = static_cast<std::size_t>(r.u64());
  unrecovered_ = static_cast<std::size_t>(r.u64());
  passes_done_ = static_cast<std::size_t>(r.u64());
  ser::check_field(r.u64(), to_sampled_.max_coord(),
                   "MultipassSpanner sampler max_coord");
  ser::check_field(r.u64(), to_sampled_.instances(),
                   "MultipassSpanner sampler instances");
  ser::check_field(r.u64(), to_sampled_.seeds()[0],
                   "MultipassSpanner sampler seed");
  to_sampled_.deserialize(r);
  for (KvTableBank& table : per_cluster_) {
    table.deserialize_state(r);
  }
}

}  // namespace kw
