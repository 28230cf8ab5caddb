/// Corollary 2: eps-spectral sparsifiers in two passes and n^{1+o(1)}/eps^4
/// space, via the [KP12] reduction from sparsification to spanners
/// (Section 6, Algorithms 4-6).
///
/// Pipeline:
///   ESTIMATE   (Alg 4): J x T two-pass spanner distance oracles on nested
///                       subsampled edge sets E^j_t; the robust connectivity
///                       estimate q(e) = 2^-t* where t* is the smallest rate
///                       at which a (1-delta) majority of copies report
///                       d(u,v) > lambda^2.
///   SAMPLE     (Alg 5): H = log n^2 sampling levels; the augmented spanner
///                       of each E_j outputs all edges its execution path
///                       decodes; an edge e counts iff q(e) = 2^-j, with
///                       weight 2^j.
///   SPARSIFY   (Alg 6): average Z independent SAMPLE invocations.
///
/// Every spanner instance runs during the same two physical passes over the
/// stream (instances see update-level filtered substreams derived from
/// per-instance hashes -- the Section 6.3 pseudorandomness substitution).
///
/// The class is a push-based StreamProcessor: the J*T + Z*H TwoPassSpanner
/// instances are built on the first absorbed update, advance_pass() closes
/// pass 1 everywhere, and finish() runs the ESTIMATE queries and the
/// SAMPLE/SPARSIFY aggregation.  clone_empty()/merge() shard ingestion by
/// the linearity of the underlying spanner sketches.
///
/// absorb() is the fused hot path: each batch is staged ONCE (pair ids,
/// coordinate dedup), every membership hash -- one per ESTIMATE copy j and
/// one per SAMPLE invocation s -- rides one batched KWiseHash::eval_many
/// sweep over the unique coordinates with survive_level computed in closed
/// form (bit_width, no per-level loop), and a counting sort by survive
/// level turns "instance (j, t) sees exactly the updates surviving rate
/// 2^-t" into a contiguous prefix handed to the row-ingest entry points
/// (pass1_ingest_row / pass2_ingest_row), which share the per-update
/// staging across all T (resp. H) nested instances of the row.  The
/// per-update fan-out this replaced lives in tests/reference as the golden
/// reference (tests/test_kp12_fused.cc pins bit-identical sketch state).
///
/// The J + Z membership rows are disjoint state islands (row r's counting
/// sort, staging scratch, and nested instances are touched by no other
/// row), so absorb() scatters them across a persistent WorkerPool; the
/// between-pass advance and the per-instance finish() fan out the same way
/// over whole instances.  Lane count comes from Kp12Config::ingest_workers
/// and never affects results -- the threaded state is bit-identical to the
/// sequential loop (the determinism wall in tests/test_kp12_fused.cc).
#ifndef KW_CORE_KP12_SPARSIFIER_H
#define KW_CORE_KP12_SPARSIFIER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/config.h"
#include "core/two_pass_spanner.h"
#include "engine/stream_processor.h"
#include "graph/graph.h"
#include "stream/dynamic_stream.h"
#include "util/hashing.h"
#include "util/worker_pool.h"

namespace kw {

struct Kp12Diagnostics {
  std::size_t oracle_instances = 0;   // J * T
  std::size_t sample_instances = 0;   // Z * H
  std::size_t edges_weighted = 0;     // edges with nonzero output weight
  std::size_t q_queries = 0;
  std::size_t unhealthy_spanners = 0;  // instances with decode trouble
};

struct Kp12Result {
  Graph sparsifier;  // weighted; compare against G via spectral_envelope
  Kp12Diagnostics diagnostics;
  std::size_t nominal_bytes = 0;
};

// Distance oracle over a fixed spanner graph: BFS from each queried source.
// Cached with a bounded FIFO of source rows (the ESTIMATE query loop visits
// sources in runs, so a small window captures nearly all reuse) and one
// distance buffer recycled through evictions -- the cache cannot grow past
// max_cached_sources rows no matter how many ESTIMATE queries run.
class SpannerOracle {
 public:
  explicit SpannerOracle(Graph spanner, std::size_t max_cached_sources = 64);

  [[nodiscard]] double distance(Vertex u, Vertex v);

  [[nodiscard]] std::size_t cached_sources() const noexcept {
    return cache_.size();
  }
  [[nodiscard]] std::size_t max_cached_sources() const noexcept {
    return max_cached_;
  }

 private:
  Graph spanner_;
  std::size_t max_cached_;
  std::unordered_map<Vertex, std::vector<std::uint32_t>> cache_;
  std::vector<Vertex> eviction_order_;  // FIFO of cached sources
  std::size_t next_victim_ = 0;         // rotates through eviction_order_
};

class Kp12Sparsifier final : public StreamProcessor {
 public:
  Kp12Sparsifier(Vertex n, const Kp12Config& config);

  // --- StreamProcessor (engine-driven, two passes) ---
  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return 2;
  }
  [[nodiscard]] Vertex n() const noexcept override { return n_; }
  void absorb(std::span<const EdgeUpdate> batch) override;
  void advance_pass() override;
  void finish() override;  // ESTIMATE queries + SAMPLE/SPARSIFY aggregation
  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override;
  void merge(StreamProcessor&& other) override;

  // Valid once after finish(); throws std::logic_error if finish() has not
  // run or the result was already taken.
  [[nodiscard]] Kp12Result take_result();

  // Decode-failure accounting aggregated over the whole instance fleet
  // (engine/health.h); survives take_result().
  [[nodiscard]] ProcessorHealth health() const override;

  // Adopts the engine's shared pool (StreamProcessor contract): ingest
  // scatter and finish-time decode then draw lanes from one budget via
  // per-phase lane caps.  Kp12Config::decode_workers, when nonzero, beats
  // the engine-level decode_lanes.  If the shared pool is smaller than this
  // instance's configured lane demand (a test forcing more lanes than the
  // engine allotted), a private pool of the demanded size is used instead.
  void use_worker_pool(std::shared_ptr<WorkerPool> pool,
                       std::size_t decode_lanes) override;

  // Convenience: the full pipeline with exactly two pass-counted replays
  // via StreamEngine.  The input graph is treated as unweighted
  // (Corollary 2's weighted case is weighted_kp12_sparsify below).
  [[nodiscard]] Kp12Result run(const DynamicStream& stream);

  // ---- serialization (src/serialize/spanner_serialize.cc) --------------
  // Supported in kPass1 and kPass2 (never-updated instances serialize as a
  // flag, not a fleet); a finished sparsifier's state lives in its result.
  [[nodiscard]] std::uint32_t serial_tag() const noexcept override;
  void serialize(ser::Writer& w) const override;
  void deserialize(ser::Reader& r) override;

 private:
  enum class Phase { kPass1, kPass2, kDone };
  struct EmptyCloneTag {};

  // The test-side per-update reference (tests/reference) drives the fleet
  // directly.
  friend struct Kp12ScalarReference;

  Kp12Sparsifier(const Kp12Sparsifier& other, EmptyCloneTag);
  // The J*T + Z*H spanner instances are built on the first absorbed update:
  // a sparsifier that never sees an update (e.g. an empty weight class in
  // weighted_kp12_sparsify) costs nothing beyond this object.
  void ensure_instances();
  // Per-row dispatch scratch: each membership row runs as an independent
  // worker task, so its sort/staging buffers must be private to the row.
  struct RowScratch {
    std::vector<std::uint64_t> hash_vals;    // per-slot membership hashes
    std::vector<std::uint32_t> slot_level;   // per-slot survive level
    std::vector<std::uint32_t> level_start;  // counting-sort fences
    std::vector<std::uint32_t> cursor;       // scatter cursors
    std::vector<std::uint64_t> sorted_ucoords;      // level-descending
    std::vector<SpannerBatchEntry> sorted_entries;  // level-descending
    std::vector<TwoPassSpanner*> instances;  // row handed to *_ingest_row
    std::vector<std::size_t> prefixes;       // per-instance entry prefix
  };

  // Fused dispatch of the staged batch to one membership hash's nested
  // instance row (sort by survive level; instance t gets the prefix that
  // survives rate 2^-t).  Reads only the shared staged batch; writes only
  // the row's instances and scratch -- safe to run rows concurrently.
  void dispatch_copy(const KWiseHash& hash, std::size_t levels,
                     std::vector<TwoPassSpanner>& row, RowScratch& scratch);
  [[nodiscard]] WorkerPool& pool();
  // Per-phase lane budgets (resolved, >= 1) carved out of pool() by lane
  // caps: ingest from config_.ingest_workers, decode from
  // config_.decode_workers (engine decode_lanes when that is 0/auto).
  [[nodiscard]] std::size_t ingest_lane_cap() const;
  [[nodiscard]] std::size_t decode_lane_cap() const;

  Vertex n_;
  Kp12Config config_;
  Phase phase_ = Phase::kPass1;
  bool initialized_ = false;  // instances built (first update seen)
  std::size_t t_levels_ = 0;  // ESTIMATE nested subsampling depth
  std::size_t h_levels_ = 0;  // SAMPLE levels (log n^2)
  std::vector<KWiseHash> estimate_hashes_;              // one per j copy
  std::vector<KWiseHash> sample_hashes_;                // one per z sample
  std::vector<std::vector<TwoPassSpanner>> oracles_;    // [j][t] on E^j_t
  std::vector<std::vector<TwoPassSpanner>> samplers_;   // [s][j] on E_{s,j}
  std::optional<Kp12Result> result_;  // set by finish()
  ProcessorHealth health_;            // aggregated at finish()
  // Folds one instance's diagnostics into health_ (failures_per_round gets
  // one entry per instance, in fleet order: oracles [j][t], samplers [s][j]).
  void accumulate_health(const TwoPassDiagnostics& d);

  // ---- fused-absorb scratch (reused across batches; never cloned) ----
  // Shared staging, written once per batch on the caller thread before the
  // row scatter; rows read it concurrently.
  std::vector<SpannerBatchEntry> staged_;     // staged batch (slot = coord id)
  std::vector<std::uint64_t> ucoords_;        // unique coordinates
  std::vector<std::uint64_t> slot_table_;     // open-addressing dedup keys
  std::vector<std::uint32_t> slot_ids_;       // dedup payload: slot index
  std::vector<RowScratch> row_scratch_;       // [j_copies + z_samples]
  // Lazy: built on first use, sized to the larger of the ingest and decode
  // lane budgets; execution-only state -- never cloned, merged, or
  // serialized.  When the engine provided a shared pool big enough
  // (shared_pool_), it is used instead and pool_ stays empty.
  std::unique_ptr<WorkerPool> pool_;
  std::shared_ptr<WorkerPool> shared_pool_;  // engine-provided, optional
  std::size_t engine_decode_lanes_ = 0;      // 0 = engine never said
};

// Corollary 2, weighted case: round weights to powers of (1 + class_eps),
// sparsify each class independently (all classes share the same two
// physical passes -- per-class filtering is update-local), and union the
// outputs scaled by the class representative.  Space gains the
// (1/eps) log(wmax/wmin) factor of the corollary.
struct WeightedKp12Result {
  Graph sparsifier;
  std::vector<Kp12Diagnostics> per_class;
  std::size_t nominal_bytes = 0;
};

[[nodiscard]] WeightedKp12Result weighted_kp12_sparsify(
    const DynamicStream& stream, const Kp12Config& config, double wmin,
    double wmax, double class_eps = 1.0);

}  // namespace kw

#endif  // KW_CORE_KP12_SPARSIFIER_H
