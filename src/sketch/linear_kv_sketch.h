/// The linear hash table of Section 3.2 (the H^u_j structures): a one-pass,
/// mergeable sketch of a key -> payload-sketch map using O(capacity * B log n)
/// words, decodable when at most ~capacity distinct keys are live (Claim 11).
///
/// Each update carries a key, a signed key-count delta, and a payload
/// contribution ("add SKETCH(delta*a) to the b-th entry of H^u_j" in
/// Algorithm 2).  A table is `tables` independent hash tables of cells; a
/// cell holds a one-sparse detector over *keys* plus an embedded SKETCH_B
/// state over payload coordinates.  Decoding peels cells whose key detector
/// verifies as one-sparse: that certifies every update in the cell shares
/// one key, so the cell's embedded payload sketch is that key's complete
/// payload; the recovered pair is then subtracted from the other tables.
///
/// Everything is component-wise additive (field arithmetic for fingerprints),
/// so tables with equal (capacity, geometry, seed) merge exactly --
/// linearity.  KvTableBank is the one implementation: a row of such tables
/// sharing a KvBankGeometry, one per level.  The two-pass spanner keeps a
/// bank per terminal (levels j = 0..), MultipassSpanner a one-level bank per
/// vertex.  Storage is proportional to touched cells while
/// nominal_bytes() reports the dense size a streaming device would allocate.
#ifndef KW_SKETCH_LINEAR_KV_SKETCH_H
#define KW_SKETCH_LINEAR_KV_SKETCH_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "serialize/serialize_fwd.h"
#include "sketch/fingerprint.h"
#include "sketch/sparse_recovery.h"
#include "util/hashing.h"
#include "util/slab_arena.h"

namespace kw {

struct LinearKvConfig {
  std::uint64_t max_key = 1;            // keys live in [0, max_key)
  std::uint64_t max_payload_coord = 1;  // payload coordinate space
  std::size_t capacity = 8;     // decodable up to ~capacity distinct keys
  std::size_t tables = 3;       // independent hash tables
  double load_factor = 0.5;     // cells_per_table = capacity / load
  std::size_t payload_budget = 4;  // embedded SKETCH_B budget per entry
  std::size_t payload_rows = 3;
  std::uint64_t seed = 1;
};

struct KvEntry {
  std::uint64_t key = 0;
  std::int64_t key_count = 0;           // net sum of key deltas
  std::vector<OneSparseCell> payload;   // embedded payload sketch state
};

// Immutable hashing context + staged scatter operands shared by a FLEET of
// KvTableBanks (the two-pass spanner's per-terminal H^u_* banks): ONE key
// fingerprint basis with full radix-256 power tables, ONE payload sketch
// geometry, ONE table hash family -- where the historical per-terminal
// construction rebuilt all three (and kept the bases compact because tens
// of thousands of copies could not afford full tables each).  Capacity may
// differ across banks (terminal trees at level i hold ~n^{(i+1)/k} keys),
// so the geometry carries one "class" per distinct capacity; everything
// random is class-independent.
//
// Sharing randomness across banks is sound for the same reason the spanner
// row shares page geometries across nested instances: no step of the
// algorithm votes or averages across different terminals' banks -- each
// bank's decode succeeds or fails by itself, and per-bank failure bounds
// union over the fleet identically whether the seeds are distinct or
// shared.
//
// With `stage_scatter`, the geometry additionally precomputes, per key /
// payload coordinate, the operands every update needs: the fingerprint
// term pairs (basis powers of coord + 1), the payload row cell indices,
// and the per-class table buckets.  A fleet consumer then scales the terms
// by its delta once per update and calls KvTableBank::update_staged, whose
// hot body is pure probe + field adds.  Staging costs
// O(max_key * (tables * classes + rows)) words -- meant for key spaces the
// size of a vertex set, not for arbitrary coordinate universes.
class KvBankGeometry {
 public:
  // All configs must agree on seed, key/payload spaces, tables and payload
  // geometry; capacity (-> cells per table) may differ per class.
  explicit KvBankGeometry(std::vector<LinearKvConfig> configs,
                          bool stage_scatter = false);

  [[nodiscard]] static std::shared_ptr<const KvBankGeometry> make(
      std::vector<LinearKvConfig> configs, bool stage_scatter = false) {
    return std::make_shared<const KvBankGeometry>(std::move(configs),
                                                  stage_scatter);
  }

  [[nodiscard]] std::size_t classes() const noexcept { return configs_.size(); }
  [[nodiscard]] const LinearKvConfig& config(std::size_t cls) const {
    return configs_[cls];
  }
  [[nodiscard]] std::size_t cells_per_table(std::size_t cls) const {
    return cells_per_table_[cls];
  }
  [[nodiscard]] std::size_t cell_stride() const noexcept {
    return cell_stride_;
  }
  [[nodiscard]] std::size_t payload_rows() const noexcept {
    return payload_rows_;
  }
  [[nodiscard]] std::size_t key_bytes() const noexcept { return key_bytes_; }
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  [[nodiscard]] const FingerprintBasis& key_basis() const noexcept {
    return key_basis_;
  }
  [[nodiscard]] const SparseRecoverySketch& payload_geometry() const noexcept {
    return payload_geometry_;
  }
  [[nodiscard]] const HashFamily& table_hashes() const noexcept {
    return table_hashes_;
  }

  // ---- staged scatter operands (stage_scatter only) --------------------
  [[nodiscard]] bool staged() const noexcept { return !key_terms_.empty(); }
  // Unscaled key term pair for `key`: basis powers of key + 1 ([0] / [1]).
  [[nodiscard]] const std::uint64_t* key_term(std::uint64_t key) const {
    return key_terms_.data() + 2 * key;
  }
  // Unscaled payload term pair for `coord`.
  [[nodiscard]] const std::uint64_t* pay_term(std::uint64_t coord) const {
    return pay_terms_.data() + 2 * coord;
  }
  // Payload row cell indices for `coord` (payload_rows() entries).
  [[nodiscard]] const std::uint32_t* pay_cells(std::uint64_t coord) const {
    return pay_cells_.data() + coord * payload_rows_;
  }
  // Per-table bucket of `key` in class `cls` (config.tables entries).
  [[nodiscard]] const std::uint32_t* buckets(std::size_t cls,
                                             std::uint64_t key) const {
    return buckets_.data() + (cls * max_key_ + key) * tables_;
  }

 private:
  std::vector<LinearKvConfig> configs_;
  std::vector<std::size_t> cells_per_table_;  // per class
  std::size_t cell_stride_;        // 1 + payload cell count
  std::size_t payload_rows_;
  std::size_t tables_;
  std::uint64_t max_key_;
  std::size_t key_bytes_ = 1;      // radix-256 digits covering key + 1
  std::size_t payload_bytes_ = 1;  // radix-256 digits covering coord + 1
  FingerprintBasis key_basis_;
  SparseRecoverySketch payload_geometry_;  // zero sketch: hashes/basis only
  HashFamily table_hashes_;
  // Staged tables (empty unless stage_scatter): key-major layouts.
  std::vector<std::uint64_t> key_terms_;   // 2 * max_key
  std::vector<std::uint64_t> pay_terms_;   // 2 * max_payload_coord
  std::vector<std::uint32_t> pay_cells_;   // max_payload_coord * rows
  std::vector<std::uint32_t> buckets_;     // classes * max_key * tables
};

// A ROW of `levels` independent key -> payload-sketch maps sharing ONE
// geometry (key basis, payload geometry, table hashes -- one seed for the
// whole row).  The two-pass spanner's pass 2 keeps one per terminal: the
// H^u_j tables of one terminal u are only ever updated together for a
// contiguous level prefix j = 0..jmax ("add SKETCH(delta*a) to the b-th
// entry of H^u_j for every surviving Y_j"), so sharing the geometry across
// j turns per-(level, table) hashing + term walks + map probes into ONE
// staged computation per update side:
//
//   * key term pair: one radix walk (was one per level per table),
//   * payload term pair + row buckets: one (was one per level),
//   * table slots: `tables` bucket hashes + probes (was (jmax+1) * tables),
//
// with a touched (table, slot)'s level rows living in one contiguous block
// so each write is pure field adds on one cache line run.  Sharing
// randomness across a terminal's levels is sound for the same reason the
// nested-instance rows share a spanner seed: levels of one terminal are
// never voted/averaged against each other -- decode takes the sparsest
// level that succeeds, and each level's success bound holds over the
// shared randomness by itself (union bound over levels).
//
// Storage is an open-addressed slot -> entry index map (no per-probe
// pointer chase, no node allocations) where an entry stores only the level
// rows an update or merge actually wrote at that slot -- memory stays
// proportional to written state, like the historical map.  Cancelled-to-zero
// rows are kept (the historical per-level maps erased them); decode and
// is_zero treat them as the zeros they are, so decoded results and
// diagnostics are unaffected.
//
// LEVEL-DIFF REPRESENTATION: an update to levels 0..jmax physically writes
// its terms ONLY at row jmax; the value of level j is materialized as the
// suffix sum over stored rows j' >= j (decode_levels keeps one running sum
// per entry, so each stored row is added exactly once, and a level no entry
// stores a row for decodes exactly like the level above it).
// The two are exactly interchangeable because every cell component is
// additive (field adds / wrapping integer adds commute and associate), so
// sum-of-diffs == diff-of-sums -- linearity again, applied across the level
// axis.  An update's cost drops from (jmax + 1) * tables cell writes to
// `tables`; merge is untouched (diffs add like values); is_zero is
// equivalent (all suffix sums zero <=> all diffs zero, by induction from
// the deepest row down).  A row never written is a zero diff, so it is not
// stored at all; the wire format still carries the dense rows 0..depth-1.
class KvTableBank {
 public:
  // An entry's level mask is one 64-bit word; more levels throw
  // std::invalid_argument at construction.
  static constexpr std::size_t kMaxLevels = 64;

  // Private-geometry form: builds a single-class KvBankGeometry internally.
  KvTableBank(const LinearKvConfig& config, std::size_t levels);
  // Fleet form: share one geometry across many banks; `cls` selects this
  // bank's capacity class.
  KvTableBank(std::shared_ptr<const KvBankGeometry> geometry, std::size_t cls,
              std::size_t levels);

  // Applies one update to levels 0..jmax (jmax < levels()).
  void update(std::uint64_t key, std::int64_t key_delta,
              std::uint64_t payload_coord, std::int64_t payload_delta,
              std::size_t jmax);

  // update() with the per-update operands read from the shared geometry's
  // staged tables (requires geometry().staged()): kt1/kt2 and pt1/pt2 are
  // the key / payload fingerprint term pairs ALREADY SCALED by the
  // respective delta -- a row of banks receiving the same update scales
  // them once and every bank call is pure probe + field adds.  State is
  // bit-identical to update() (same terms, same cells, same arithmetic).
  void update_staged(std::uint64_t key, std::int64_t key_delta,
                     std::uint64_t payload_coord, std::int64_t payload_delta,
                     std::size_t jmax, std::uint64_t kt1, std::uint64_t kt2,
                     std::uint64_t pt1, std::uint64_t pt2);

  // this += sign * other (same configuration + levels required).
  void merge(const KvTableBank& other, std::int64_t sign = 1);

  // Decodes EVERY level in one deepest-first sweep -- the order Algorithm 2
  // reads H^u_j in, sparsest level first.  on_level(j, entries) runs for
  // j = levels() - 1 down to 0 with level j's decode: the key -> (count,
  // payload) map sorted by key, or nullopt when the level is overloaded.
  // Keys whose state cancelled to zero do not appear.  Returns the bank's
  // touched bytes, counted in the same sweep: LIVE (slot, level) cells only,
  // matching per-level erase-at-zero maps, so a level whose state cancelled
  // to zero costs nothing.  Scratch is local to the call, so distinct banks
  // decode concurrently.
  using LevelVisitor = std::function<void(
      std::size_t level, const std::optional<std::vector<KvEntry>>& entries)>;
  std::size_t decode_levels(const LevelVisitor& on_level) const;
  [[nodiscard]] std::optional<std::vector<Recovered>> decode_payload(
      const KvEntry& entry) const;

  [[nodiscard]] bool is_zero() const noexcept;
  [[nodiscard]] std::size_t levels() const noexcept { return levels_; }
  // Bytes held by live arena blocks (stored rows plus each block's growth
  // slack): the bank's resident cell storage.
  [[nodiscard]] std::size_t stored_bytes() const noexcept {
    return arena_.live_slots() * sizeof(OneSparseCell);
  }
  [[nodiscard]] const LinearKvConfig& config() const noexcept {
    return geo_->config(cls_);
  }
  [[nodiscard]] const KvBankGeometry& geometry() const noexcept {
    return *geo_;
  }

  // Dense footprint of the declared level fleet; a static closed form so a
  // never-touched terminal's space claim costs no construction.
  [[nodiscard]] static std::size_t nominal_bytes(const LinearKvConfig& config,
                                                 std::size_t levels) noexcept;

  // ---- serialization (src/serialize/sketch_serialize.cc) ---------------
  // State only; the owner re-derives the config from its own seed chain.
  void serialize_state(ser::Writer& w) const;
  void deserialize_state(ser::Reader& r);

 private:
  using CellArena = SlabArena<OneSparseCell>;

  // One touched (table, slot): the DIFF rows of the levels written there,
  // packed in ascending level order in the bank's cell arena at `block`.
  // Bit j of `mask` is set iff level j's row is stored; it sits at index
  // popcount(mask & (2^j - 1)), starting at block + index * cell_stride_.
  // Cell 0 of a row is the level's key-detector diff, cells 1 + c its
  // payload diffs; the level's value is the suffix sum of rows >= j (see
  // the class comment).  The depth bit_width(mask) is the wire format's
  // "touched levels".  The block has room for `cap` rows and doubles when
  // a new level's row does not fit.  Handles are offsets into the per-bank
  // slab arena, so entries copy/move with the bank and a bank's blocks pack
  // into a handful of geometrically sized slabs instead of one malloc per
  // entry.
  struct Entry {
    std::uint64_t slot_id = 0;
    std::uint64_t mask = 0;
    CellArena::Handle block = CellArena::kNull;
    std::uint32_t cap = 0;
  };

  [[nodiscard]] std::uint64_t slot(std::size_t table, std::uint64_t key) const;
  [[nodiscard]] Entry& entry_at(std::uint64_t slot_id);
  [[nodiscard]] const Entry* find_entry(std::uint64_t slot_id) const;
  void grow_table();
  // Level j's stored row of `entry`, inserting a zeroed row in place first
  // when the level has none.  Invalidates raw cell pointers into the
  // entry's block -- callers re-fetch after.
  [[nodiscard]] OneSparseCell* row_for_write(Entry& entry, std::size_t j);
  [[nodiscard]] const OneSparseCell* cells_of(const Entry& e) const {
    return arena_.data(e.block);
  }
  // Peels one level in place: `work` holds the materialized cells of the
  // entries reaching the level, in sweep order (pos_of maps an entry index
  // to its position there).
  [[nodiscard]] std::optional<std::vector<KvEntry>> peel_level(
      std::vector<OneSparseCell>& work,
      const std::vector<std::uint32_t>& pos_of) const;

  std::shared_ptr<const KvBankGeometry> geo_;
  std::size_t cls_ = 0;
  std::size_t levels_;
  // Copies of the geometry's class answers, for terse hot-path reads and
  // the serializer.
  std::size_t cells_per_table_;
  std::size_t cell_stride_;        // 1 + payload cell count
  // Open addressing: ht_slot_[pos] is a slot id (kEmpty if free),
  // ht_index_[pos] the index into entries_.
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};
  std::vector<std::uint64_t> ht_slot_;
  std::vector<std::uint32_t> ht_index_;
  std::vector<Entry> entries_;
  CellArena arena_;  // every entry's cell block, one contiguous store
};

}  // namespace kw

#endif  // KW_SKETCH_LINEAR_KV_SKETCH_H
