/// The push-based processor contract every sketch algorithm implements.
///
/// Historically each algorithm pulled from a fully materialized
/// DynamicStream via replay() plus ad-hoc per-class pass methods; nothing
/// could ingest from an unbuffered source, batch updates, or shard ingestion
/// across threads.  Because every sketch in the paper is a *linear* function
/// of the update vector (Section 2), all of them fit one uniform push
/// interface: a driver feeds batches of updates, announces pass boundaries,
/// and -- for the linear stages -- may split a pass across per-shard clones
/// that are folded back together by sketch addition.
///
/// Lifecycle, driven by kw::StreamEngine (engine/stream_engine.h):
///
///   absorb(batch)* -> [advance_pass -> absorb(batch)*]^(P-1) -> finish()
///
/// where P = passes_required().  After finish() the concrete type's result
/// accessor (take_result() by convention) yields the algorithm's output.
/// Processors must throw std::logic_error on out-of-phase calls so contract
/// violations surface immediately instead of as silent decode garbage.
#ifndef KW_ENGINE_STREAM_PROCESSOR_H
#define KW_ENGINE_STREAM_PROCESSOR_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>

#include "engine/health.h"
#include "graph/graph.h"
#include "serialize/serialize_fwd.h"
#include "stream/update.h"

namespace kw {

class WorkerPool;

// Updates per absorb() call when a driver is not told otherwise: the
// default of StreamEngineOptions::batch_size, StreamEngine::run_single and
// ConcurrentIngestOptions::flush_capacity.  Measured curve and the memory
// it costs: see StreamEngineOptions::batch_size.
inline constexpr std::size_t kDefaultBatchSize = 131072;

class StreamProcessor {
 public:
  virtual ~StreamProcessor() = default;

  // Number of physical passes over the stream this processor consumes.
  [[nodiscard]] virtual std::size_t passes_required() const noexcept = 0;

  // Vertex-set size the processor was built for (drivers check it against
  // the source before feeding updates).
  [[nodiscard]] virtual Vertex n() const noexcept = 0;

  // Feed a batch of updates belonging to the current pass.  Batches within
  // one pass arrive in stream order under sequential ingestion; under
  // sharded ingestion each clone sees an arbitrary subsequence (legal for
  // linear stages only).
  virtual void absorb(std::span<const EdgeUpdate> batch) = 0;

  // Pass boundary: called once between consecutive passes (never after the
  // final pass).  Single-pass processors may throw.
  virtual void advance_pass() = 0;

  // End of the final pass: run post-processing and make the result
  // available.  Called exactly once.
  virtual void finish() = 0;

  // Decode-failure accounting, meaningful after finish(): how many sketch
  // decodes failed (by decoder family and by round/level) and whether the
  // result was degraded by them.  Survives take_result().  The default is
  // an empty, healthy report -- processors without probabilistic decoders
  // need not override.  The engine collects these into
  // EngineRunStats::health (see engine/health.h).
  [[nodiscard]] virtual ProcessorHealth health() const { return {}; }

  // ---- linear-stage support (sharded / distributed ingestion) ----------

  // A clone with identical configuration, randomness, and control state at
  // the current pass boundary, but all linear sketch state zero.  Returns
  // nullptr if the processor cannot shard its current pass; the engine
  // reports that as an error when asked for sharded ingestion.
  [[nodiscard]] virtual std::unique_ptr<StreamProcessor> clone_empty() const {
    return nullptr;
  }

  // Fold another processor's linear state into this one (this += other).
  // Only called with clones produced by this->clone_empty() that absorbed a
  // disjoint share of the same pass; exact by sketch linearity.
  virtual void merge(StreamProcessor&& other) {
    (void)other;
    throw std::logic_error(
        "StreamProcessor::merge: this processor is not mergeable");
  }

  // Shard-affinity hint: the worker shard the concurrent ingest driver
  // (engine/concurrent_ingest.h) should route `update` to when it partitions
  // a pass across `shards` worker-owned clones.  ANY assignment is exact --
  // linearity makes the merged result independent of the partition -- so
  // this is purely a locality hint.  The default routes by lo-endpoint:
  // the fused BankGroup ingest groups its scatter by the update's lo vertex,
  // so keeping all updates incident to one lo vertex on one worker keeps
  // each worker's vertex-grouped scatter inside a disjoint slice of its own
  // clone.  Must be a pure function of (update, shards), < shards.
  [[nodiscard]] virtual std::size_t shard_affinity(
      const EdgeUpdate& update, std::size_t shards) const noexcept {
    const Vertex lo = update.u < update.v ? update.u : update.v;
    return static_cast<std::size_t>(lo) % shards;
  }

  // ---- execution resources (engine-provided) ---------------------------

  // The engine hands every attached processor ONE shared WorkerPool before
  // feeding a run, so parallel phases (ingest scatter, decode at finish)
  // draw lanes from a single machine-wide budget instead of each processor
  // spinning a private thread set next to the shard workers.  decode_lanes
  // is the engine-level lane budget for finish()-time decode (resolved,
  // >= 1); processor-local knobs may override it, and per-phase lane caps
  // pick the budget out of the shared pool.  Lane counts are execution-only
  // -- a processor must produce bit-identical results at every count.  The
  // default ignores the pool (processors with no internal parallelism).
  virtual void use_worker_pool(std::shared_ptr<WorkerPool> pool,
                               std::size_t decode_lanes) {
    (void)pool;
    (void)decode_lanes;
  }

  // ---- serialization (src/serialize) -----------------------------------

  // Type tag of this processor's serialized payload (a ser:: fourcc), or 0
  // if the type does not support serialization.  ser::save/load dispatch on
  // it, and checkpoint files record it per attached processor.
  [[nodiscard]] virtual std::uint32_t serial_tag() const noexcept {
    return 0;
  }

  // Writes the processor's state (config/geometry validation header +
  // linear sketch state + control state) to `w`.  Only meaningful when
  // serial_tag() != 0.
  virtual void serialize(ser::Writer& w) const {
    (void)w;
    throw std::logic_error(
        "StreamProcessor::serialize: this processor type is not "
        "serializable");
  }

  // Restores state written by serialize() into this object, which must have
  // been constructed with the same configuration; throws ser::SerializeError
  // if the stored geometry or seeds disagree.
  virtual void deserialize(ser::Reader& r) {
    (void)r;
    throw std::logic_error(
        "StreamProcessor::deserialize: this processor type is not "
        "serializable");
  }

 protected:
  // Downcast helper for merge() implementations.
  template <class Derived>
  [[nodiscard]] static Derived& merge_cast(StreamProcessor& other) {
    auto* derived = dynamic_cast<Derived*>(&other);
    if (derived == nullptr) {
      throw std::invalid_argument(
          "StreamProcessor::merge: incompatible processor type");
    }
    return *derived;
  }
};

}  // namespace kw

#endif  // KW_ENGINE_STREAM_PROCESSOR_H
