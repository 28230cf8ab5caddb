/// Per-vertex L0 sketch banks ([JST11]/[AGM12a]-style L0 sampling), every
/// Boruvka round's (and, for k-connectivity, every layer's) cells in ONE
/// contiguous vertex-major allocation, ingested by one staged sweep per
/// batch.  This is the library's only L0 bank; a one-group BankGroup is a
/// single bank and a one-vertex bank is the single-vector sampler.
///
/// Group g is n independent L0 samplers (one per vertex) sharing seed g,
/// hence one hash family and fingerprint basis -- the sharing that makes
/// per-vertex sketches summable across vertices, which Boruvka-over-sketches
/// requires.  Each sampler keeps, per independent instance, one one-sparse
/// detector per level over the coordinates surviving rate-2^-j subsampling
/// (nested, driven by one k-wise hash); when a vector has L0 nonzeros, the
/// level near log2(L0) is one-sparse with constant probability and returns
/// its (coordinate, value) exactly.  Groups share (vertices, max_coord,
/// instances) and differ only in their seed -- exactly the shape of
/// AgmGraphSketch (one group per round) and KConnectivitySketch (k layers x
/// rounds groups).  Physically ALL cells live in one allocation:
///
///   cells_[(((vertex * G) + group) * instances + instance) * levels + level]
///
/// so group g's sketch of one vertex is a contiguous "stripe" of
/// instances*levels cells, and one vertex's stripes for ALL groups form a
/// contiguous "super-stripe".  The G*instances hash functions sit in one
/// contiguous coefficient matrix (KWiseHash keeps its coefficients inline,
/// so a flat vector of them IS the matrix).
///
/// Why fuse instead of one bank per round:
///  * ingest_pairs(batch) stages each update ONCE -- endpoint validation,
///    churn aggregation, the endpoint sort, coordinate dedupe -- instead of
///    re-paying that staging loop per round, then drives one fused level
///    sweep per group over the shared unique coordinates.
///  * the scatter is vertex-grouped: postings are counting-sorted by
///    endpoint, so each vertex's stripe region is walked once per batch per
///    group with all of its updates applied together.  The per-round layout
///    revisits every stripe once per touching update in stream order, which
///    for a 4096-update batch means ~2*batch/n scattered passes over the
///    same cache lines; grouping collapses those into one resident pass.
///    (Cell adds commute exactly, so any application order is bit-identical.)
///  * merge()/clone_empty() are flat loops over one array for ALL rounds --
///    the StreamEngine's sharded clone/fold path pays one virtual call per
///    shard instead of one per round.
///
/// Randomness: group g with seed s derives its basis from derive_seed(s,
/// 0x10b) and its hash family from derive_seed(s, 0x10a), so a group's
/// cells do not depend on which other groups share the allocation.  Every
/// ingest path writes cells bit-identical to the scalar per-level sampler
/// algorithm (tests/reference/bank_scalar_reference.h), pinned in
/// tests/test_sketch_bank.cc.
#ifndef KW_SKETCH_BANK_GROUP_H
#define KW_SKETCH_BANK_GROUP_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "serialize/serialize_fwd.h"
#include "sketch/fingerprint.h"
#include "util/hashing.h"

namespace kw {

struct BankGroupConfig {
  std::uint64_t max_coord = 1;  // coordinate space is [0, max_coord)
  std::size_t instances = 4;    // repetitions tried at decode, per group
  std::vector<std::uint64_t> seeds;  // one per group (round / layer x round)
};

// One signed AGM-style pair update: +delta into lo's sketch, -delta into
// hi's, both at the same coordinate (the edge's pair id).
struct BankPairUpdate {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  std::uint64_t coord = 0;
  std::int64_t delta = 0;
};

// One single-vertex update (the non-pair consumers: center samplers,
// re-homing samplers).
struct BankVertexUpdate {
  std::uint32_t vertex = 0;
  std::uint64_t coord = 0;
  std::int64_t delta = 0;
};

class BankGroup {
 public:
  // Empty group (0 vertices, 0 groups); assignable from a real one.
  BankGroup() = default;

  BankGroup(std::size_t vertices, const BankGroupConfig& config);

  [[nodiscard]] std::size_t vertices() const noexcept { return vertices_; }
  [[nodiscard]] std::size_t groups() const noexcept { return groups_; }
  [[nodiscard]] std::size_t instances() const noexcept { return instances_; }
  [[nodiscard]] std::size_t levels() const noexcept { return levels_; }
  [[nodiscard]] std::uint64_t max_coord() const noexcept { return max_coord_; }
  // Cells of one (vertex, group) stripe.
  [[nodiscard]] std::size_t cells_per_stripe() const noexcept {
    return instances_ * levels_;
  }
  // Cells of one vertex's super-stripe (all groups).
  [[nodiscard]] std::size_t cells_per_vertex() const noexcept {
    return groups_ * cells_per_stripe();
  }
  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const noexcept {
    return seeds_;
  }

  // ---- ingest ---------------------------------------------------------

  // Fused batched pair ingest into groups [group_first, group_first +
  // group_count), or every group in the one-argument form: the batch is
  // staged once (aggregated, endpoint-sorted, coordinates deduped), each
  // group's instance hashes take one fused sweep over the unique
  // coordinates, and the scatter is grouped by endpoint vertex.  Each update
  // adds (coord, +delta) to lo's sketch and (coord, -delta) to hi's; lo and
  // hi must differ.  The whole span is validated before any cell changes.
  // Uses internal scratch buffers -- not safe for concurrent calls on one
  // group (each engine shard ingests into its own clone).  Zero-delta
  // entries are skipped.  Duplicate updates whose summed delta overflows
  // int64 throw std::overflow_error.
  void ingest_pairs(std::span<const BankPairUpdate> batch);
  void ingest_pairs(std::span<const BankPairUpdate> batch,
                    std::size_t group_first, std::size_t group_count);

  // ingest_pairs into every group, staging inside `batch` itself instead of
  // a copy of it: aggregation, the lo-endpoint sort and the record fields
  // are rewritten in place, so `batch`'s contents are unspecified afterwards
  // (its storage is scratch the caller already owns, e.g. a sketch's
  // reused staging vector).  Same validation and exceptions as ingest_pairs.
  void ingest_pairs_in_place(std::span<BankPairUpdate> batch);

  // Fused batched single-vertex ingest into EVERY group; same staging, hash
  // sweep and vertex-grouped scatter as ingest_pairs.
  void ingest_updates(std::span<const BankVertexUpdate> batch);

  // ---- linearity ------------------------------------------------------

  // this += sign * other; other must share (vertices, geometry, seeds).
  void merge(const BankGroup& other, std::int64_t sign = 1);

  // A zero group with identical configuration and randomness.
  [[nodiscard]] BankGroup clone_empty() const;

  // ---- decode (per group) ---------------------------------------------

  // Group g's contiguous run of instances*levels cells for `vertex`.
  [[nodiscard]] std::span<const OneSparseCell> stripe(
      std::size_t group, std::size_t vertex) const {
    return {stripe_ptr(group, vertex), cells_per_stripe()};
  }

  // acc += sign * stripe(group, vertex); acc must hold cells_per_stripe()
  // cells written by this group (or zero-initialized).
  void accumulate(std::span<OneSparseCell> acc, std::size_t group,
                  std::size_t vertex, std::int64_t sign = 1) const;

  // Decodes a stripe-shaped cell run (e.g. an accumulate() sum) with group
  // g's randomness: deepest level first per instance.
  [[nodiscard]] std::optional<Recovered> decode_cells(
      std::size_t group, std::span<const OneSparseCell> cells) const;

  // A nonzero coordinate of `vertex`'s group-g sketched vector, or nullopt.
  [[nodiscard]] std::optional<Recovered> decode(std::size_t group,
                                                std::size_t vertex) const {
    return decode_cells(group, stripe(group, vertex));
  }

  [[nodiscard]] bool vertex_is_zero(std::size_t group,
                                    std::size_t vertex) const noexcept {
    return cells_zero(stripe(group, vertex));
  }
  [[nodiscard]] bool is_zero() const noexcept {
    return cells_zero({cells_.data(), cells_.size()});
  }
  [[nodiscard]] static bool cells_zero(
      std::span<const OneSparseCell> cells) noexcept;

  [[nodiscard]] std::size_t nominal_bytes() const noexcept {
    return cells_.size() * sizeof(OneSparseCell) +
           seeds_.size() * sizeof(std::uint64_t) + 2 * sizeof(std::uint64_t);
  }

  // Randomness accessors (golden tests reproduce the scalar reference path
  // from these).
  [[nodiscard]] const FingerprintBasis& basis(std::size_t group) const {
    return bases_[group];
  }
  [[nodiscard]] const KWiseHash& level_hash(std::size_t group,
                                            std::size_t instance) const {
    return hashes_[group * instances_ + instance];
  }

  // ---- serialization (src/serialize/sketch_serialize.cc) ---------------
  // Writes geometry + seeds (validated on load) and one sparse cell
  // section; hashes/bases are rebuilt from seeds by the constructor, so
  // deserialize() requires an identically-configured destination.
  void serialize(ser::Writer& w) const;
  void deserialize(ser::Reader& r);

 private:
  [[nodiscard]] const OneSparseCell* stripe_ptr(std::size_t group,
                                                std::size_t vertex) const {
    return cells_.data() + (vertex * groups_ + group) * cells_per_stripe();
  }
  [[nodiscard]] OneSparseCell* stripe_ptr(std::size_t group,
                                          std::size_t vertex) {
    return cells_.data() + (vertex * groups_ + group) * cells_per_stripe();
  }

  // Adds (delta, wsum, t1, t2) to cells [0, deepest] of one instance run.
  static void add_run(OneSparseCell* run, std::size_t deepest,
                      std::int64_t delta, std::uint64_t wsum, std::uint64_t t1,
                      std::uint64_t t2) noexcept {
    for (std::size_t j = 0; j <= deepest; ++j) {
      run[j].count += delta;
      run[j].coord_sum += wsum;
      run[j].fp1 = field_add(run[j].fp1, t1);
      run[j].fp2 = field_add(run[j].fp2, t2);
    }
  }

  // Deepest level to write for hash value h: min(levels-1, deepest by hash).
  [[nodiscard]] std::uint8_t clamp_level(std::uint64_t h) const noexcept {
    const std::uint64_t deep = KWiseHash::deepest_level(h);
    return static_cast<std::uint8_t>(deep < levels_ ? deep : levels_ - 1);
  }

  // Whole-span validation of a pair batch (zero-delta entries skipped).
  void check_pairs(std::span<const BankPairUpdate> batch) const;
  // Shared machinery behind every ingest entry point: aggregates, sorts and
  // scatters `staged` (rewritten in place) into groups [group_first,
  // group_end).  `pairs` selects signed two-endpoint scatter (lo +, hi -)
  // over single-vertex scatter (lo only; hi == lo).
  void ingest_staged(std::span<BankPairUpdate> staged, bool pairs,
                     std::size_t group_first, std::size_t group_end);
  // ingest_staged's kernel for batches the vertex-grouped scatter does not
  // pay for: each aggregated update's level runs are written directly.
  void scatter_each(std::span<const BankPairUpdate> staged, bool pairs,
                    std::size_t group_first, std::size_t group_end);

  std::uint64_t max_coord_ = 1;
  std::size_t instances_ = 0;
  std::size_t groups_ = 0;
  std::size_t vertices_ = 0;
  std::size_t levels_ = 0;
  std::vector<std::uint64_t> seeds_;
  std::vector<FingerprintBasis> bases_;  // one per group
  // The coefficient matrix: G*instances hashes, coefficients inline, one
  // contiguous block; entry (g, i) at hashes_[g * instances + i].
  std::vector<KWiseHash> hashes_;
  std::vector<OneSparseCell> cells_;  // vertices x groups x instances x levels

  // ---- ingest scratch (persistent across batches; see ingest_pairs) ----
 public:
  // Internal scatter records, public only for the kernel functions in the
  // implementation file.
  // One staged update's scatter operands for the CURRENT group, packed so
  // the hi-endpoint gather's random read touches one 40-byte slot instead
  // of three arrays.
  struct GroupRec {
    std::uint64_t t1, t2;  // fingerprint terms (delta applied)
    std::uint64_t wsum;    // delta * coord (mod 2^64)
    std::int64_t delta;
    std::uint8_t lev[8];  // clamped deepest level per instance
  };
  // Level bucket with lazily-accumulated fingerprints: 128-bit sums of
  // canonical terms, one exact reduction when the bucket lands in a cell.
  // Each sum is kept as two words and added with an explicit carry
  // (add_term), which compiles to add + adc-immediate on the bucket in
  // memory; gcc 12 spills the zero high word of a __uint128_t += u64 to the
  // stack in the unrolled scatter loop.
  struct LazyCell {
    std::int64_t count = 0;
    std::uint64_t coord_sum = 0;
    std::uint64_t fp1_lo = 0, fp1_hi = 0;
    std::uint64_t fp2_lo = 0, fp2_hi = 0;

    static void add_term(std::uint64_t& lo, std::uint64_t& hi,
                         std::uint64_t term) noexcept {
      hi += __builtin_add_overflow(lo, term, &lo);
    }
    [[nodiscard]] static __uint128_t wide(std::uint64_t lo,
                                          std::uint64_t hi) noexcept {
      return static_cast<__uint128_t>(hi) << 64 | lo;
    }
  };

 private:
  // A copy of const-span batches (ingest_pairs / ingest_updates); callers
  // with their own staging vector use ingest_pairs_in_place and skip it.
  std::vector<BankPairUpdate> staged_;
  // Open-addressing table of u32 indices (~0 empty), reused by the
  // aggregation (keys live in the staged records) and the coordinate dedupe
  // (keys live in ucoords_).
  std::vector<std::uint32_t> index_table_;
  // Dynamic edge streams repeat coordinates heavily (every deletion shares
  // its insertion's pair id), and everything the hashes and power walks
  // compute depends only on the coordinate -- so each chunk dedupes
  // coordinates into slots (first-use order after the lo sort) and runs
  // those kernels once per UNIQUE coordinate.
  std::vector<std::uint32_t> slots_;    // staged update -> slot
  std::vector<std::uint64_t> ucoords_;  // slot -> coordinate
  std::vector<std::uint64_t> powers_;   // x^1..x^degree per slot, shared
  // The current group's scatter operands, one per staged update.  Each
  // group first lands per-slot powers and levels in recs_[slot], then
  // expands them to per-update records in place (slot <= update index).
  std::vector<GroupRec> recs_;
  // Level-bucket accumulators of the vertex-grouped scatter: per instance,
  // the sum of one vertex's contributions whose deepest level is exactly j;
  // a suffix sweep per instance then lands sums in cells [0..deepest level
  // that instance reached] (bit-identical to per-posting prefix writes
  // because cell adds commute).
  std::vector<LazyCell> lazy_acc_;  // instances x levels, kept zeroed
  // Staged updates are counting-sorted by lo endpoint (lo_end_ fences), so
  // the scatter's lo side streams recs_ sequentially; the hi side gathers
  // through hi_postings_ (staged indices sorted by hi, hi_end_ fences),
  // whose storage first holds the lo sort's permutation.
  std::vector<std::uint32_t> lo_end_;
  std::vector<std::uint32_t> hi_postings_;
  std::vector<std::uint32_t> hi_end_;
  std::size_t term_bytes_ = 1;  // radix-256 digits covering max_coord
};

}  // namespace kw

#endif  // KW_SKETCH_BANK_GROUP_H
