/// The push-based driver: owns pass accounting, feeds configurable-size
/// batches from a StreamSource, fans one physical pass out to every attached
/// StreamProcessor (e.g. a spanner, a KP12 sparsifier, and an AGM forest all
/// riding the same two passes), and optionally shards ingestion across
/// threads (shards > 1) through a persistent ConcurrentIngestDriver:
/// per-shard aggregation buffers routed by lo-endpoint, bounded lock-free
/// handoff rings, worker-owned clone_empty() copies merged back by sketch
/// linearity at each pass end (Section 1's distributed setting, in-process;
/// see engine/concurrent_ingest.h).
///
/// Pass semantics: the engine makes max_i passes_required(i) physical
/// passes.  During pass p only processors with passes_required() > p receive
/// batches; at the end of pass p each of those either advances
/// (advance_pass) or, if p was its last pass, finishes (finish()).  This is
/// the single place the "exactly N passes" contract of each theorem is
/// enforced -- the per-algorithm run() conveniences all route through
/// run_single().
#ifndef KW_ENGINE_STREAM_ENGINE_H
#define KW_ENGINE_STREAM_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/concurrent_ingest.h"
#include "engine/health.h"
#include "engine/stream_processor.h"
#include "engine/stream_source.h"

namespace kw {

class WorkerPool;

struct StreamEngineOptions {
  StreamEngineOptions() = default;
  // The two knobs almost every caller sets; driver tuning keeps defaults.
  StreamEngineOptions(std::size_t batch_size_, std::size_t shards_)
      : batch_size(batch_size_), shards(shards_) {}

  // Updates per absorb() call.  Fused-sketch processors (BankGroup-backed)
  // amortize staging, hashing, churn cancellation and the vertex-grouped
  // scatter over the batch; the scatter sweeps every vertex stripe of every
  // group once per batch, so bigger is cheaper.  Measured on the
  // forest_churn shape (ER n=4096, 294,912 updates a pass, one
  // SpanningForestProcessor; engine run, median of 3 x 5, 4-vCPU x86-64):
  //   batch      16,384  32,768  65,536  131,072  262,144
  //   run (s)      0.65    0.51    0.39     0.27     0.15
  //   VmHWM (MiB)   165     169     174      174      176
  // The curve depends on two properties of the stream: how many batches a
  // pass takes (each is one sweep of the stripes) and how many
  // insert/delete pairs fall inside one batch and cancel before any
  // hashing.  Here a pass is 2.25 batches of 131,072, and 47% of its
  // updates cancel in-batch against 9% at 16,384; about half of the
  // 16,384 -> 131,072 gain is fewer sweeps, the part a stream many batches
  // long keeps (docs/ARCHITECTURE.md, "Batch size and per-batch scratch").
  // BankGroup's scratch is about 90-140 bytes per update; TwoPassSpanner,
  // whose scratch is far larger per update, walks a batch in fixed chunks.
  // Under shards > 1 this is also each shard's aggregation-buffer flush
  // capacity.
  std::size_t batch_size = kDefaultBatchSize;

  // >1: concurrent ingestion -- a persistent ConcurrentIngestDriver with
  // this many worker threads, each owning clone_empty() copies of every
  // active processor, merged back at each pass end (exact by linearity).
  std::size_t shards = 1;

  // ---- concurrent-driver tuning (ignored when shards == 1) -------------
  // Flushed batches in flight per worker before the front-end blocks.
  std::size_t shard_queue_depth = 4;
  // Custom update -> worker routing; empty = the processors' own
  // shard_affinity() hint (lo-endpoint).  Any router is exact.
  ConcurrentIngestOptions::Router shard_router;
  // Nonzero: seeded random per-buffer flush thresholds (test knob; see
  // ConcurrentIngestOptions::flush_jitter_seed).
  std::uint64_t shard_flush_jitter_seed = 0;

  // ---- shared execution resources --------------------------------------
  // Worker lanes for finish()-time decode parallelism inside processors
  // that support it (KP12 terminal-table decode, AGM Boruvka rounds);
  // 0 = one lane per hardware thread.  The engine builds ONE WorkerPool per
  // engine, sized to this, and hands it to every attached processor
  // (StreamProcessor::use_worker_pool) so ingest scatter and decode share a
  // single lane budget instead of each processor spinning private threads
  // next to the shard workers.  Execution-only: results are bit-identical
  // at every value.
  std::size_t decode_workers = 0;

  // ---- periodic checkpointing ------------------------------------------
  // 0 = off.  When set, every checkpoint_every_updates absorbed updates the
  // engine serializes every attached processor to checkpoint_path, together
  // with the current pass and the update offset inside it.  A killed run
  // restarts via resume(), which reloads the processors and replays only
  // the remainder of the stream -- exact because every attached sketch's
  // state is invariant to batch boundaries.
  //
  // Durability protocol (crash-consistent; tests/test_crash_recovery.cc
  // SIGKILLs between every step): the envelope is written to a ".tmp"
  // sibling and fsync'd; a transient write failure is retried with bounded
  // backoff; the previous checkpoint is rotated to checkpoint_path +
  // ".prev"; the temp file is renamed into place; the directory is fsync'd.
  // resume() prefers the latest file and falls back to ".prev" when the
  // latest is missing, truncated, or corrupt.
  //
  // Sequential ingest (shards == 1) checkpoints mid-pass at this cadence.
  // Sharded ingest has no serializable cut while worker clones are in
  // flight, so checkpoints land at PASS BOUNDARIES only (after the pass-end
  // merge) -- multi-pass sharded runs still resume without replaying
  // completed passes.  Every attached processor must be serializable
  // (serial_tag() != 0).
  std::size_t checkpoint_every_updates = 0;
  std::string checkpoint_path;

  // ---- decode-failure policy -------------------------------------------
  // false (default): decode failures degrade quality -- processors return
  // partial results, and the per-processor counters land in
  // EngineRunStats::health.  true: run()/resume() throw DecodeDegradedError
  // after finishing when any processor reports failures or a degraded
  // result (the loud behavior quality-regression tests want).
  bool strict = false;
};

struct EngineRunStats {
  std::size_t passes = 0;            // physical passes made
  std::size_t updates_per_pass = 0;  // updates fed during the first pass
  // Total absorb() batches (all passes).  Sequential: source batches.
  // Sharded: non-empty aggregation-buffer flushes handed to workers.
  std::size_t batches = 0;
  std::size_t shards = 1;
  // Times the sharded front-end slept on a full worker ring (0 when
  // shards == 1): backpressure blocks, it never drops.
  std::size_t backpressure_waits = 0;
  // Per-processor decode-failure accounting, collected after finish().
  // health.healthy() == true on a clean run.
  HealthReport health;
};

class StreamEngine {
 public:
  explicit StreamEngine(StreamEngineOptions options = {});

  // Registers a processor (non-owning; must outlive run()).
  StreamEngine& attach(StreamProcessor& processor);

  // Drives all attached processors to completion.  Throws std::logic_error
  // with a descriptive message on any pass-contract violation (no
  // processors, vertex-set mismatch, unshardable processor under shards>1).
  EngineRunStats run(StreamSource& source);

  // Convenience over a materialized stream; additionally cross-checks the
  // stream's own pass counter against the engine's accounting.
  EngineRunStats run(const DynamicStream& stream);

  // Restarts a killed checkpointed run: loads the checkpoint written by a
  // previous run() with the same options and attached processors (same
  // types, same order, same configs), restores every processor's state, and
  // replays only the remainder of the stream -- from the stored pass,
  // skipping the stored number of already-absorbed updates.  The final
  // state is identical to the uninterrupted run.  When checkpoint_path is
  // missing, truncated, or corrupt, falls back to checkpoint_path + ".prev"
  // (the rotation sibling write_checkpoint maintains); throws
  // SerializeError only when both are unusable or mismatched.
  EngineRunStats resume(StreamSource& source,
                        const std::string& checkpoint_path);
  EngineRunStats resume(const DynamicStream& stream,
                        const std::string& checkpoint_path);

  // THE single implementation behind every algorithm's run(stream)
  // convenience: exactly processor.passes_required() pass-counted replays.
  static void run_single(StreamProcessor& processor,
                         const DynamicStream& stream,
                         std::size_t batch_size = kDefaultBatchSize);

  // True once a run()/resume() escaped with an exception mid-ingest: the
  // attached processors hold partial state that is not a prefix of any
  // legal stream, so further run()/resume() calls throw std::logic_error
  // with that explanation instead of computing garbage.
  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

 private:
  [[nodiscard]] std::size_t validate_and_count_passes(
      const StreamSource& source) const;
  EngineRunStats run_from(StreamSource& source, std::size_t start_pass,
                          std::uint64_t skip_updates);
  // Restores every processor from one checkpoint file and returns the
  // stream cut (pass, offset-within-pass) to resume from.
  struct CheckpointCut {
    std::size_t pass = 0;
    std::uint64_t offset = 0;
  };
  CheckpointCut load_checkpoint(const std::string& path);
  void write_checkpoint(std::size_t pass, std::uint64_t offset) const;
  void collect_health(EngineRunStats& stats) const;
  void check_not_poisoned() const;
  void run_pass_sequential(StreamSource& source,
                           const std::vector<StreamProcessor*>& active,
                           EngineRunStats& stats, std::size_t pass_index,
                           std::uint64_t skip_updates);
  void run_pass_concurrent(StreamSource& source,
                           const std::vector<StreamProcessor*>& active,
                           ConcurrentIngestDriver& driver,
                           EngineRunStats& stats);

  StreamEngineOptions options_;
  std::vector<StreamProcessor*> processors_;
  // The engine-wide lane budget (options_.decode_workers lanes), built on
  // the first run and handed to every attached processor; see
  // StreamProcessor::use_worker_pool.
  std::shared_ptr<WorkerPool> pool_;
  std::uint64_t updates_since_checkpoint_ = 0;
  bool poisoned_ = false;
};

}  // namespace kw

#endif  // KW_ENGINE_STREAM_ENGINE_H
