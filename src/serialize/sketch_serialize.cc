// serialize()/deserialize() members of the sketch layer: BankGroup,
// SparseRecoverySketch, DistinctElementsSketch, KvTableBank (state only),
// AgmGraphSketch.
//
// Each payload starts with the object's configuration/geometry, which
// deserialize() VALIDATES against the live (identically constructed)
// destination rather than loads -- hash coefficients and fingerprint power
// tables are rebuilt from seeds by the constructors and never serialized.
#include <algorithm>
#include <bit>
#include <vector>

#include "agm/neighborhood_sketch.h"
#include "serialize/serialize.h"
#include "sketch/bank_group.h"
#include "sketch/distinct_elements.h"
#include "sketch/linear_kv_sketch.h"
#include "sketch/sparse_recovery.h"

namespace kw {

// ---- BankGroup ----------------------------------------------------------

void BankGroup::serialize(ser::Writer& w) const {
  w.begin_section("bank_group.header");
  w.u64(max_coord_);
  w.u64(instances_);
  w.u64(groups_);
  w.u64(vertices_);
  w.u64(levels_);
  w.u64(seeds_.size());
  for (const std::uint64_t s : seeds_) w.u64(s);
  w.end_section();
  ser::write_cells(w, {cells_.data(), cells_.size()}, "bank_group.cells");
}

void BankGroup::deserialize(ser::Reader& r) {
  ser::check_field(r.u64(), max_coord_, "BankGroup max_coord");
  ser::check_field(r.u64(), instances_, "BankGroup instances");
  ser::check_field(r.u64(), groups_, "BankGroup groups");
  ser::check_field(r.u64(), vertices_, "BankGroup vertices");
  ser::check_field(r.u64(), levels_, "BankGroup levels");
  ser::check_field(r.u64(), seeds_.size(), "BankGroup seed count");
  for (const std::uint64_t s : seeds_) {
    ser::check_field(r.u64(), s, "BankGroup seed");
  }
  ser::read_cells(r, {cells_.data(), cells_.size()});
}

// ---- SparseRecoverySketch -----------------------------------------------

void SparseRecoverySketch::serialize(ser::Writer& w) const {
  w.begin_section("sparse_recovery.header");
  w.u64(config_.max_coord);
  w.u64(config_.budget);
  w.u64(config_.rows);
  w.u64(config_.seed);
  w.u8(config_.full_pow_tables ? 1 : 0);
  w.end_section();
  ser::write_cells(w, {cells_.data(), cells_.size()},
                   "sparse_recovery.cells");
}

void SparseRecoverySketch::deserialize(ser::Reader& r) {
  ser::check_field(r.u64(), config_.max_coord, "SparseRecovery max_coord");
  ser::check_field(r.u64(), config_.budget, "SparseRecovery budget");
  ser::check_field(r.u64(), config_.rows, "SparseRecovery rows");
  ser::check_field(r.u64(), config_.seed, "SparseRecovery seed");
  ser::check_field(r.u8(), config_.full_pow_tables ? 1 : 0,
                   "SparseRecovery full_pow_tables");
  ser::read_cells(r, {cells_.data(), cells_.size()});
}

// ---- DistinctElementsSketch ---------------------------------------------

void DistinctElementsSketch::serialize(ser::Writer& w) const {
  w.begin_section("distinct_elements.header");
  w.u64(config_.max_coord);
  w.f64(config_.epsilon);
  w.u64(config_.repetitions);
  w.u64(config_.seed);
  w.end_section();
  w.begin_section("distinct_elements.fingerprints");
  for (const std::vector<std::uint64_t>& rep : fingerprints_) {
    ser::put_u64_vector(w, rep);
  }
  w.end_section();
}

void DistinctElementsSketch::deserialize(ser::Reader& r) {
  ser::check_field(r.u64(), config_.max_coord,
                   "DistinctElements max_coord");
  ser::check_f64_field(r.f64(), config_.epsilon, "DistinctElements epsilon");
  ser::check_field(r.u64(), config_.repetitions,
                   "DistinctElements repetitions");
  ser::check_field(r.u64(), config_.seed, "DistinctElements seed");
  for (std::vector<std::uint64_t>& rep : fingerprints_) {
    const std::size_t expected = rep.size();
    ser::get_u64_vector(r, rep);
    ser::check_field(rep.size(), expected,
                     "DistinctElements fingerprint run length");
  }
}

// ---- KvTableBank --------------------------------------------------------

void KvTableBank::serialize_state(ser::Writer& w) const {
  w.begin_section("kv_bank.state");
  // entries_ is insertion-ordered (update arrival); sort by slot id so
  // save -> load -> save is byte-identical regardless of update order.
  std::vector<std::uint32_t> order(entries_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return entries_[a].slot_id < entries_[b].slot_id;
            });
  w.u64(entries_.size());
  w.u64(levels_);
  w.u64(cell_stride_);
  const OneSparseCell zero;
  for (const std::uint32_t i : order) {
    const Entry& e = entries_[i];
    const auto depth = static_cast<std::size_t>(std::bit_width(e.mask));
    w.u64(e.slot_id);
    w.u64(depth);  // touched levels 0..jcap
    // Rows are the in-memory LEVEL DIFFS (level j's value is the suffix sum
    // of rows >= j); readers get the same representation back, so merge /
    // decode semantics round-trip unchanged.  The packed block is a memory
    // detail: the wire carries the dense rows 0..depth-1, a level without a
    // stored row as zeros, exactly the stream the historical per-entry
    // vectors produced.
    const OneSparseCell* row = cells_of(e);
    for (std::size_t j = 0; j < depth; ++j) {
      const bool stored = (e.mask >> j & 1) != 0;
      for (std::size_t c = 0; c < cell_stride_; ++c) {
        ser::put_cell(w, stored ? row[c] : zero);
      }
      if (stored) row += cell_stride_;
    }
  }
  w.end_section();
}

void KvTableBank::deserialize_state(ser::Reader& r) {
  const std::uint64_t count = r.u64();
  ser::check_field(r.u64(), levels_, "KvTableBank levels");
  ser::check_field(r.u64(), cell_stride_, "KvTableBank cell stride");
  const std::uint64_t slot_limit = config().tables * cells_per_table_;
  entries_.clear();
  ht_slot_.clear();
  ht_index_.clear();
  arena_.reset();
  entries_.reserve(count);
  std::vector<OneSparseCell> rows;  // one entry's dense wire rows
  std::uint64_t prev_slot = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Entry e;
    e.slot_id = r.u64();
    if (e.slot_id >= slot_limit || (i > 0 && e.slot_id <= prev_slot)) {
      throw ser::SerializeError(
          "KvTableBank slot id out of order or out of range");
    }
    prev_slot = e.slot_id;
    const std::uint64_t touched_levels = r.u64();
    if (touched_levels == 0 || touched_levels > levels_) {
      throw ser::SerializeError("KvTableBank touched level count invalid");
    }
    // Keep the nonzero rows plus the deepest one (it carries the depth),
    // so reserializing yields the same dense rows byte for byte.
    rows.resize(touched_levels * cell_stride_);
    for (OneSparseCell& c : rows) c = ser::get_cell(r);
    const auto row_at = [&](std::size_t j) {
      return rows.data() + j * cell_stride_;
    };
    for (std::size_t j = 0; j < touched_levels; ++j) {
      if (j + 1 == touched_levels ||
          std::any_of(row_at(j), row_at(j + 1),
                      [](const OneSparseCell& c) { return !c.is_zero(); })) {
        e.mask |= std::uint64_t{1} << j;
      }
    }
    e.cap = static_cast<std::uint32_t>(std::popcount(e.mask));
    e.block = arena_.allocate(std::size_t{e.cap} * cell_stride_);
    OneSparseCell* dst = arena_.data(e.block);
    for (std::uint64_t m = e.mask; m != 0; m &= m - 1) {
      const auto j = static_cast<std::size_t>(std::countr_zero(m));
      dst = std::copy(row_at(j), row_at(j + 1), dst);
    }
    entries_.push_back(e);
  }
  // One rebuild at the final size (grow_table sizes off entries_.size()).
  if (!entries_.empty()) grow_table();
}

// ---- AgmGraphSketch -----------------------------------------------------

void AgmGraphSketch::serialize(ser::Writer& w) const {
  w.begin_section("agm.header");
  w.u32(n_);
  w.u64(config_.rounds);
  w.u64(config_.sampler_instances);
  w.u64(config_.seed);
  w.end_section();
  group_.serialize(w);
}

void AgmGraphSketch::deserialize(ser::Reader& r) {
  ser::check_field(r.u32(), n_, "AgmGraphSketch n");
  ser::check_field(r.u64(), config_.rounds, "AgmGraphSketch rounds");
  ser::check_field(r.u64(), config_.sampler_instances,
                   "AgmGraphSketch sampler_instances");
  ser::check_field(r.u64(), config_.seed, "AgmGraphSketch seed");
  group_.deserialize(r);
}

}  // namespace kw
