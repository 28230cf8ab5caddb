/// Theorem 1: a 2^k-spanner in two passes and ~O(n^{1+1/k}) bits
/// (Algorithms 1 and 2 of the paper).
///
/// Pass 1 maintains, for every vertex u, level r in [1, k-1] and sampling
/// level j, the sketch S^r_j(u) = SKETCH_B(({u} x C_r) cap E cap E_j).  After
/// the pass, the cluster forest is built bottom-up: the connector for T_u at
/// level i sums members' S^{i+1}_j sketches (linearity!) and decodes from the
/// sparsest level downward until a nonempty support appears -- that support
/// is an edge from T_u into C_{i+1}, and its witness.
///
/// Pass 2 maintains, for every *terminal* copy u and level j, the linear hash
/// table H^u_j keyed by outside vertices v with an embedded neighborhood
/// sketch of N(v) cap T_u cap Y_j as value.  After the pass, each outside
/// neighbor v of each terminal tree contributes one recovered edge (w, v),
/// w in T_u.  The spanner is phi(F) plus those edges (Lemma 12 size bound,
/// Lemma 13 stretch bound).
///
/// Storage layout (the sparsifier hot-path refactor): all of pass 1's
/// S^r_j(u) sketches live in (k-1) * edge_levels "pages", one per (r, j).
/// A page holds a flat vertex-major cell array `cells[u * cell_count + c]`,
/// materialized on first touch; everything immutable -- the cluster
/// hierarchy, the level hashes, every page's SparseRecoverySketch geometry
/// (row hashes + fingerprint power tables -- the sharing across vertices is
/// what makes member sketches summable), and the per-vertex Y_j caps --
/// lives in ONE shared SpannerGeometry, so a fleet of instances over the
/// same substream row (the KP12 nested ladder) constructs it once.  The
/// historical layout was a lazy map keyed by (u, r, j) whose every entry
/// owned a full SparseRecoverySketch -- including a private copy of the
/// (r, j) fingerprint power tables, rebuilt per touched vertex.  Cells are
/// bit-identical between the two layouts (same derive_seed chain, and cell
/// adds commute), which the golden tests in tests/test_two_pass_spanner.cc
/// pin against a scalar SparseRecoverySketch reference.
///
/// Pass 2's H^u_j tables are a per-terminal KvTableBank: one geometry for
/// all of a terminal's vertex levels, one slot probe per (update, table)
/// covering the whole surviving level prefix, level-major contiguous cell
/// blocks.  Banks materialize on first touch, so the between-pass advance
/// is O(touched terminals), not O(terminals * levels).
///
/// The class implements the push-based StreamProcessor contract (two
/// passes; absorb / advance_pass / finish driven by kw::StreamEngine).  The
/// KP12 sparsifier feeds many instances filtered substreams of the *same*
/// two physical passes, so there are also staged entry points (pass1_ingest
/// / pass2_ingest and their row forms) consuming caller-staged batches with
/// deduplicated coordinates: hash levels ride one eval_many sweep per batch,
/// fingerprint terms and row buckets are computed once per unique coordinate
/// per page, and pass 2 reads precomputed per-vertex Y_j levels and a
/// terminal-member table instead of hashing per update.  absorb() stages
/// internally and feeds the same entry points, so every ingest -- one
/// update or a whole batch -- takes one path.
/// run() is the single-instance convenience, routed through
/// StreamEngine::run_single so the two-pass contract is enforced in one
/// place.  clone_empty()/merge() shard either pass by sketch linearity.
///
/// `augmented` mode additionally reports every edge decoded on the execution
/// path (Claims 16, 18, 20) -- the property the sparsifier's sampling lemma
/// needs.
#ifndef KW_CORE_TWO_PASS_SPANNER_H
#define KW_CORE_TWO_PASS_SPANNER_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cluster_forest.h"
#include "core/config.h"
#include "engine/stream_processor.h"
#include "graph/graph.h"
#include "sketch/linear_kv_sketch.h"
#include "sketch/sparse_recovery.h"
#include "stream/dynamic_stream.h"
#include "util/hashing.h"
#include "util/slab_arena.h"

namespace kw {

struct TwoPassDiagnostics {
  std::size_t pass1_sketches_touched = 0;
  std::size_t pass1_scan_failures = 0;   // decode failures while scanning
  std::size_t pass2_tables_undecodable = 0;
  std::size_t pass2_neighbors_unrecovered = 0;
  std::vector<std::size_t> terminals_per_level;

  [[nodiscard]] bool healthy() const noexcept {
    return pass2_tables_undecodable == 0 && pass2_neighbors_unrecovered == 0;
  }
};

struct TwoPassResult {
  Graph spanner;
  // Augmented mode: every edge of G observed by a successful decode on the
  // execution path (superset of the spanner's edge set restricted to
  // decoded locations); empty otherwise.
  std::vector<Edge> augmented_edges;
  TwoPassDiagnostics diagnostics;
  std::size_t nominal_bytes = 0;  // dense sketch footprint (space claim)
  std::size_t touched_bytes = 0;  // memory actually held by this simulator
};

// One staged stream update for the batched ingest entry points: the caller
// computed the pair id once and deduplicated coordinates into slots (every
// entry's `slot` indexes the ucoords span handed to pass1_ingest), so a fleet
// of instances fed filtered substreams of one batch -- the KP12 shape --
// stages the batch ONCE and shares the staging across all of them.
struct SpannerBatchEntry {
  std::uint64_t coord = 0;  // pair_id(u, v, n)
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  std::uint32_t slot = 0;  // index into the unique-coordinate array
  std::int32_t delta = 0;
};

// In-place coordinate dedup WITH delta aggregation over a staged batch
// (open addressing over the caller's reusable scratch): a pair id
// determines its endpoints, so duplicate coordinates -- a churn stream's
// deletion reuses its insertion's pair id -- collapse into one entry with
// the summed delta, linearity-exact for every downstream cell.  Net-zero
// survivors are KEPT (a zero-delta entry still materializes the same
// pass-1 sketches the unaggregated updates would, so state stays
// bit-identical).  Afterwards entries.size() == ucoords.size() and entry i IS unique
// coordinate slot i.  A summed delta that overflows its int32 throws
// std::overflow_error.  Shared by TwoPassSpanner::absorb and
// Kp12Sparsifier::absorb.
void aggregate_batch_entries(std::vector<SpannerBatchEntry>& entries,
                             std::vector<std::uint64_t>& ucoords,
                             std::vector<std::uint64_t>& slot_table,
                             std::vector<std::uint32_t>& slot_ids);

// Immutable randomness + precomputed tables shared by a ROW of spanner
// instances: the cluster hierarchy, the E_j / Y_j sampling hashes and
// thresholds, every (r, j) pass-1 page geometry (row hashes + fingerprint
// basis with full power tables), and the per-vertex Y_j level caps.  A
// standalone spanner owns a private geometry; the KP12 sparsifier builds ONE
// per copy row and hands it to all T (resp. H) nested instances, so
// hierarchy sampling, hash construction, power-table builds and the Y_j cap
// sweep run once per row instead of once per instance.  Sharing randomness
// across the nested instances of one copy is sound: the KP12 majority vote
// runs across copies j -- whose rows stay independent -- never across the
// nested t ladder of one copy, and each instance's per-level failure bounds
// hold over the shared randomness by themselves (union bound over the row).
// Instances sharing a geometry can also share batch staging
// (pass1_ingest_row below): qualification masks, E_j levels, fingerprint
// terms and row buckets are functions of the geometry only.
struct SpannerGeometry {
  // pass1_rows must lie in [1, kMaxFastRows] (std::invalid_argument
  // otherwise): the staged pass-1 scatter keeps one bucket per row inline.
  static constexpr std::size_t kMaxFastRows = 4;

  SpannerGeometry(Vertex n, const TwoPassConfig& config);

  [[nodiscard]] static std::shared_ptr<const SpannerGeometry> make(
      Vertex n, const TwoPassConfig& config) {
    return std::make_shared<const SpannerGeometry>(n, config);
  }

  [[nodiscard]] const SparseRecoverySketch& page_geometry(
      unsigned r, std::size_t j) const {
    return pages[(r - 1) * edge_levels + j];
  }
  [[nodiscard]] std::size_t y_level_of(Vertex v) const;

  Vertex n;
  TwoPassConfig config;
  ClusterHierarchy hierarchy;
  std::size_t edge_levels;    // log2(n^2) + 1 sampling levels for E_j
  std::size_t vertex_levels;  // Y_j levels (half-octave rates by default)
  KWiseHash edge_level_hash;
  KWiseHash y_hash;
  std::vector<std::uint64_t> y_thresholds;  // survive j iff hash < thresh[j]
  // (k-1) * edge_levels page geometries (sketch state unused: hashes/basis).
  std::vector<SparseRecoverySketch> pages;
  std::vector<std::uint8_t> y_caps;  // per-vertex deepest Y_j level
  std::size_t pass1_cell_count;      // rows * buckets per (u, r, j) sketch
  std::size_t coord_bytes;           // radix-256 digits covering pair ids
  // Pass 2's shared bank geometry: one class per terminal level (capacity
  // ~n^{(level+1)/k}), one basis / payload geometry / hash family for the
  // WHOLE terminal fleet of every instance on this geometry, with staged
  // per-vertex fingerprint terms, payload row cells and table buckets (see
  // KvBankGeometry).  The historical construction built all of that per
  // terminal, under per-terminal seeds, on the between-pass path.
  std::shared_ptr<const KvBankGeometry> bank_geo;
};

class TwoPassSpanner final : public StreamProcessor {
 public:
  TwoPassSpanner(Vertex n, const TwoPassConfig& config);
  // Row form: share one geometry across a fleet of instances (KP12).
  explicit TwoPassSpanner(std::shared_ptr<const SpannerGeometry> geometry);

  // --- StreamProcessor (engine-driven) ---
  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return 2;
  }
  [[nodiscard]] Vertex n() const noexcept override { return n_; }
  void absorb(std::span<const EdgeUpdate> batch) override;
  void advance_pass() override { finish_pass1(); }
  void finish() override;  // computes the result; read via take_result()
  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override;
  void merge(StreamProcessor&& other) override;

  // Value-typed clone_empty() for containers of instances (KP12 holds its
  // J*T + Z*H spanners by value).
  [[nodiscard]] TwoPassSpanner clone_empty_instance() const {
    return TwoPassSpanner(*this, EmptyCloneTag{});
  }

  // Valid once after finish().
  [[nodiscard]] TwoPassResult take_result();

  // --- split finish (the threaded decode path; see Kp12Sparsifier) ---
  // finish() == begin_finish() + decode_terminal(0..T-1) + complete_finish().
  // begin_finish() freezes ingestion (phase -> done) and returns the
  // terminal count T.  decode_terminal(t) decodes terminal t's bank into a
  // private result slot -- it only READS shared state (banks are const
  // during decode) and writes slot t, so calls for DISTINCT terminals may
  // run concurrently on a worker pool.  complete_finish() folds the slots
  // in terminal order and assembles the result; the fold order is fixed, so
  // the result is bit-identical to the sequential finish() at every lane
  // count.
  [[nodiscard]] std::size_t begin_finish();
  void decode_terminal(std::size_t t);
  void complete_finish();

  // Decode-failure accounting (engine/health.h), from the running
  // diagnostics: pass-1 connector-scan failures count as sparse-recovery
  // misses, undecodable pass-2 tables and unrecovered neighbors as kv
  // misses.  Survives take_result().
  [[nodiscard]] ProcessorHealth health() const override {
    ProcessorHealth h;
    h.name = "TwoPassSpanner";
    h.sparse_recovery_failures = diagnostics_.pass1_scan_failures;
    h.kv_failures = diagnostics_.pass2_tables_undecodable +
                    diagnostics_.pass2_neighbors_unrecovered;
    h.failures_per_round = {diagnostics_.pass1_scan_failures,
                            diagnostics_.pass2_tables_undecodable +
                                diagnostics_.pass2_neighbors_unrecovered};
    h.degraded = !diagnostics_.healthy();
    return h;
  }

  void finish_pass1();  // builds the cluster forest, prepares pass 2

  // --- staged batched interface (the fused sparsifier hot path) ---
  // Entries must have u != v, endpoints < n, coord == pair_id(u, v, n) and
  // slot < ucoords.size() with ucoords[slot] == coord; ucoords must be
  // duplicate-free.  Cells after pass1_ingest are bit-identical to the same
  // entries absorbed one at a time (adds commute; hashing is eval_many,
  // terms ride shared power tables -- all exact).
  void pass1_ingest(std::span<const SpannerBatchEntry> entries,
                    std::span<const std::uint64_t> ucoords);
  // Same contract for pass 2 (no coordinate staging needed: pass 2 reads
  // the geometry's precomputed per-vertex Y_j caps).
  void pass2_ingest(std::span<const SpannerBatchEntry> entries);

  // --- row-shared staged ingest (the KP12 nested-instance hot path) ---
  // instances[i] ingests the prefix entries[0, prefixes[i]); prefixes must
  // be non-increasing (nested instances, std::invalid_argument otherwise)
  // and every instance must share ONE SpannerGeometry (and be in pass 1 /
  // pass 2 accordingly).
  // Staging -- hierarchy qualification, E_j levels, fingerprint terms, row
  // buckets -- runs ONCE over the full entry set on instances[0]'s scratch
  // and every instance's scatter reuses it; cells are bit-identical to each
  // instance calling pass1_ingest on its own prefix.
  static void pass1_ingest_row(std::span<TwoPassSpanner* const> instances,
                               std::span<const std::size_t> prefixes,
                               std::span<const SpannerBatchEntry> entries,
                               std::span<const std::uint64_t> ucoords);
  static void pass2_ingest_row(std::span<TwoPassSpanner* const> instances,
                               std::span<const std::size_t> prefixes,
                               std::span<const SpannerBatchEntry> entries);

  [[nodiscard]] const SpannerGeometry& geometry() const noexcept {
    return *geo_;
  }
  [[nodiscard]] const std::shared_ptr<const SpannerGeometry>& geometry_ptr()
      const noexcept {
    return geo_;
  }

  // Valid after finish_pass1().
  [[nodiscard]] const ClusterForest& forest() const;

  // Pass-1 page cells for (r, j) -- empty span if never touched.  Golden
  // tests rebuild the scalar SparseRecoverySketch reference (config seed
  // chain: derive_seed(seed, 0x1000 + r * 1024 + j)) and compare cells.
  [[nodiscard]] std::span<const OneSparseCell> pass1_cells(unsigned r,
                                                           std::size_t j) const;
  [[nodiscard]] std::size_t edge_sampling_levels() const noexcept {
    return edge_levels_;
  }

  // --- convenience: exactly two pass-counted replays via StreamEngine ---
  [[nodiscard]] TwoPassResult run(const DynamicStream& stream);

  // ---- serialization (src/serialize/spanner_serialize.cc) --------------
  // Supported at any phase before kDone (checkpoints land mid-pass; the
  // distributed protocol ships pass-1 shards, the advanced between-pass
  // state, and pass-2 shards).  A finished spanner's state lives in its
  // result -- extract it instead of serializing.
  [[nodiscard]] std::uint32_t serial_tag() const noexcept override;
  void serialize(ser::Writer& w) const override;
  void deserialize(ser::Reader& r) override;

 private:
  enum class Phase { kPass1, kBetween, kPass2, kDone };
  struct EmptyCloneTag {};

  // One (r, j) pass-1 page: the S^r_j(u) bank over ALL vertices.  The page
  // randomness lives in the shared geometry (geo_->page_geometry(r, j));
  // cells (n * cell_count, vertex-major) materialize lazily so an instance
  // that never sees an update -- or a deep KP12 subsample level -- costs
  // nothing.  touched mirrors the historical map's key set ((u, r, j)
  // materialized iff an update landed there), keeping diagnostics and
  // connector-scan semantics bit-compatible.
  //
  // Storage is two per-instance slab arenas (cells / touch flags): a page
  // holds arena HANDLES, so every materialized page of an instance lives in
  // one contiguous store, finish_pass1's teardown is an O(1) arena reset,
  // and pages copy/move with the instance.  All pages of an instance are
  // the same size (n * cell_count cells, n flags), so freed blocks recycle
  // trivially.  kNull == never materialized (all-zero sketch state).
  struct Pass1Page {
    SlabArena<OneSparseCell>::Handle cells = SlabArena<OneSparseCell>::kNull;
    SlabArena<char>::Handle touched = SlabArena<char>::kNull;
  };

  // Staged per-(slot, j) scatter operands for the current r: the basis
  // powers of coord + 1 (delta applied at scatter time) and the row cell
  // indices within a vertex's page stripe.
  struct PageRec {
    std::uint64_t p1 = 0, p2 = 0;
    std::uint32_t cell[SpannerGeometry::kMaxFastRows] = {};
  };

  // clone_empty(): same config/randomness/control state, zero sketch state.
  TwoPassSpanner(const TwoPassSpanner& other, EmptyCloneTag);

  [[nodiscard]] LinearKvConfig table_config(unsigned level) const;

  [[nodiscard]] Pass1Page& page_at(unsigned r, std::size_t j) {
    return pass1_pages_[(r - 1) * edge_levels_ + j];
  }
  // Arena accessors for a page's blocks.  Slabs never move, so these
  // pointers stay valid across later page materializations; only reset()
  // (a new pass) or deserialization invalidates them.
  [[nodiscard]] bool page_live(const Pass1Page& p) const noexcept {
    return p.cells != SlabArena<OneSparseCell>::kNull;
  }
  [[nodiscard]] OneSparseCell* page_cells(const Pass1Page& p) {
    return page_arena_.data(p.cells);
  }
  [[nodiscard]] const OneSparseCell* page_cells(const Pass1Page& p) const {
    return page_arena_.data(p.cells);
  }
  [[nodiscard]] char* page_flags(const Pass1Page& p) {
    return touch_arena_.data(p.touched);
  }
  [[nodiscard]] const char* page_flags(const Pass1Page& p) const {
    return touch_arena_.data(p.touched);
  }
  // Lazily materializes terminal t's H^u_* level bank: a terminal no pass-2
  // update ever lands in never pays for construction (the between-pass
  // advance is O(touched)).
  [[nodiscard]] KvTableBank& bank_for(std::size_t t);
  // Materializes cells/touched and registers the (keeper, page) touch in the
  // diagnostics, mirroring the historical map's lazy emplace.
  [[nodiscard]] OneSparseCell* page_stripe(Pass1Page& page, Vertex keeper);
  void validate_entries(std::span<const SpannerBatchEntry> entries) const;
  // Is v a member of terminal tree `term`?  O(1): each vertex belongs to at
  // most one tree per level, so v is in `term` iff `term` IS the tree at
  // term's level containing v (tree_at_level_, built at finish_pass1; the
  // historical CSR member lists cost a probe per (update, side, instance)).
  [[nodiscard]] bool is_member(std::size_t term, Vertex v) const {
    return tree_at_level_[static_cast<std::size_t>(terminals_[term].level) *
                              n_ +
                          v] == static_cast<std::uint32_t>(term);
  }

  [[nodiscard]] std::optional<Connector> sketch_connector(
      unsigned level, const std::vector<Vertex>& members);

  // Derives every pass-2 structure (terminals_, member CSR, the empty lazy
  // bank slots, terminal_of_vertex_) from forest_.  Shared by finish_pass1()
  // and deserialize() (which loads forest_ then bank states into freshly
  // materialized banks).
  void prepare_pass2_structures();

  void note_augmented(const Edge& e);

  // Shared (possibly row-shared) randomness + precomputes; immutable.  The
  // scalar mirrors below are copies of geo_ fields kept for serialization
  // compatibility and terse hot-path reads.
  std::shared_ptr<const SpannerGeometry> geo_;
  Vertex n_;
  TwoPassConfig config_;
  Phase phase_ = Phase::kPass1;
  std::size_t edge_levels_;
  std::size_t vertex_levels_;
  std::size_t pass1_cell_count_ = 0;
  std::size_t coord_bytes_ = 1;

  // Pass 1: (k-1) * edge_levels_ pages (see Pass1Page), blocks in the two
  // arenas below.
  std::vector<Pass1Page> pass1_pages_;
  SlabArena<OneSparseCell> page_arena_;
  SlabArena<char> touch_arena_;

  // Between passes.
  std::optional<ClusterForest> forest_;
  std::vector<CopyRef> terminals_;
  std::vector<std::uint32_t> terminal_of_vertex_;  // index into terminals_
  // (level, v) -> index of the level-`level` terminal tree containing v
  // (kNoTree if none): O(n * k) words, precomputed at finish_pass1() so
  // pass-2 membership tests are one table read (see is_member).
  static constexpr std::uint32_t kNoTree = ~std::uint32_t{0};
  std::vector<std::uint32_t> tree_at_level_;  // (k + 1) * n slots

  // Pass 2: one H^u_* level bank per terminal copy, materialized on first
  // touch (see bank_for).
  std::vector<std::unique_ptr<KvTableBank>> banks_;

  TwoPassDiagnostics diagnostics_;
  std::size_t pass1_touched_bytes_ = 0;  // recorded before pass-1 teardown
  std::map<std::pair<Vertex, Vertex>, double> augmented_;  // dedup
  std::optional<TwoPassResult> result_;  // set by finish()

  // Per-terminal decode output (begin_finish -> decode_terminal ->
  // complete_finish): recovered (w, v) edges in decode order plus the
  // terminal's failure counts and its bank's touched bytes (counted by the
  // decode sweep), folded sequentially by complete_finish.
  struct TerminalDecode {
    std::vector<std::pair<Vertex, Vertex>> edges;
    std::size_t undecodable = 0;
    std::size_t unrecovered = 0;
    std::size_t touched_bytes = 0;
  };
  std::vector<TerminalDecode> finish_slots_;

  // ---- staged-ingest scratch (reused across batches; never cloned) ----
  std::vector<std::uint64_t> scratch_hash_;   // per-slot / per-list hashes
  std::vector<std::uint8_t> scratch_jmax_;    // per-slot deepest E_j level
  std::vector<std::uint8_t> qual_mask_;       // per-slot C_r qualification
  std::vector<std::uint32_t> active_slots_;   // slots qualifying somewhere
  std::vector<std::uint32_t> block_off_;      // per-slot record block offset
  std::vector<std::uint32_t> level_slots_;    // per-level slot lists (flat)
  std::vector<std::uint32_t> level_end_;      // fences into level_slots_
  std::vector<std::uint64_t> gather_coords_;  // per-page gathered coords
  std::vector<PageRec> recs_;                 // current r's scatter operands
  std::vector<OneSparseCell> acc_;            // connector-scan accumulator
  // absorb()'s internal staging (pair ids + coordinate dedup).
  std::vector<SpannerBatchEntry> staged_entries_;
  std::vector<std::uint64_t> staged_ucoords_;
  std::vector<std::uint64_t> slot_table_;
  std::vector<std::uint32_t> slot_ids_;
};

// Remark 14: weighted graphs via geometric weight classes.  Splits the
// stream into classes [wmin (1+eps)^c, wmin (1+eps)^{c+1}), runs one
// TwoPassSpanner per class (all during the same two passes), and unions the
// results with each class's upper representative weight.  The stretch bound
// becomes (1+eps) 2^k.
struct WeightedSpannerResult {
  Graph spanner;
  std::vector<TwoPassDiagnostics> per_class;
  std::size_t nominal_bytes = 0;
};

[[nodiscard]] WeightedSpannerResult weighted_two_pass_spanner(
    const DynamicStream& stream, const TwoPassConfig& config, double wmin,
    double wmax, double class_eps = 1.0);

}  // namespace kw

#endif  // KW_CORE_TWO_PASS_SPANNER_H
