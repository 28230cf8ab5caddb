/// The persistent multi-threaded ingest driver behind StreamEngine's
/// shards > 1 path.
///
/// Architecture (GraphStreamingCC's guttering process_stream driver and
/// Grappa's aggregate-per-destination / flush-on-capacity idiom, in one
/// process):
///
///   front-end (caller thread)              N worker threads
///   ------------------------               ----------------------------
///   route each update to a shard           each worker owns clone_empty()
///   (shard_affinity: lo-endpoint,    -->   copies of every active
///   or a custom router), append to         processor and ingests flushed
///   that shard's fixed-capacity            batches through the ordinary
///   aggregation buffer; flush the          fused absorb() path
///   buffer into the worker's bounded
///   SPSC ring when it fills (or at
///   pass end)
///
/// The hot path takes no locks: routing is a pure function plus a local
/// vector append, and the handoff rings are lock-free (util/spsc_queue.h).
/// A full ring BLOCKS the front-end (bounded memory, never drops).  Pass
/// end flushes every remainder buffer, sends a pass-end marker down each
/// ring, waits for all workers to acknowledge it (the drain barrier), and
/// folds the worker clones into the primary processors in fixed worker
/// order.  Because every shardable stage is a LINEAR function of the update
/// vector, the merged state is bit-identical to sequential ingestion no
/// matter how updates were partitioned, how buffers were flushed, or how
/// the OS interleaved the workers -- which is what makes the whole driver
/// testable to exact equality (tests/test_concurrent_ingest.cc).
///
/// Workers are persistent: threads start at construction, serve every pass
/// (clones are re-taken per pass so multi-pass control state advances), and
/// exit when the driver is destroyed.  A worker exception is captured, the
/// worker keeps draining (so the front-end never blocks on a dead consumer
/// and the barrier always completes), and end_pass() rethrows it on the
/// caller thread.
#ifndef KW_ENGINE_CONCURRENT_INGEST_H
#define KW_ENGINE_CONCURRENT_INGEST_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "engine/stream_processor.h"
#include "stream/update.h"
#include "util/random.h"
#include "util/spsc_queue.h"

namespace kw {

struct ConcurrentIngestOptions {
  // Worker threads, each owning one clone_empty() shard per processor.
  std::size_t workers = 2;

  // Updates buffered per shard before the buffer is flushed to its worker.
  std::size_t flush_capacity = kDefaultBatchSize;

  // Flushed batches that may sit in one worker's ring before the front-end
  // blocks on it (backpressure).
  std::size_t queue_depth = 4;

  // Routes an update to a worker in [0, workers).  Empty: the first active
  // processor's shard_affinity() (lo-endpoint by default).  Any router is
  // exact by linearity; tests use this to force adversarial partitions
  // (everything to one shard, round-robin, power-law).
  using Router = std::function<std::size_t(const EdgeUpdate&, std::size_t)>;
  Router router;

  // Nonzero: draw each buffer's flush threshold uniformly from
  // [1, flush_capacity] (seeded, deterministic) instead of always flushing
  // at capacity.  Randomizes flush ordering and batch boundaries -- a test
  // knob for proving neither affects the merged state.
  std::uint64_t flush_jitter_seed = 0;
};

struct ConcurrentIngestStats {
  std::size_t updates = 0;             // updates routed this pass
  std::size_t batches = 0;             // non-empty batches handed to workers
  std::size_t backpressure_waits = 0;  // front-end sleeps on a full ring
};

class ConcurrentIngestDriver {
 public:
  explicit ConcurrentIngestDriver(ConcurrentIngestOptions options);
  ~ConcurrentIngestDriver();

  ConcurrentIngestDriver(const ConcurrentIngestDriver&) = delete;
  ConcurrentIngestDriver& operator=(const ConcurrentIngestDriver&) = delete;

  // Starts a pass over `processors` (all must outlive the pass): takes one
  // clone_empty() per processor per worker.  Throws std::logic_error if any
  // processor cannot shard its current pass.
  void begin_pass(const std::vector<StreamProcessor*>& processors);

  // Routes a batch of updates into the per-shard aggregation buffers,
  // flushing any buffer that reaches its threshold.  Caller thread only.
  void push(std::span<const EdgeUpdate> updates);

  // True once any worker has failed this pass; the front-end may stop
  // feeding early (end_pass() still barriers and rethrows the exception).
  [[nodiscard]] bool failed() const noexcept {
    return any_error_.load(std::memory_order_relaxed);
  }

  // Flushes every remainder buffer, waits for all workers to drain (the
  // pass-end barrier), rethrows the first worker exception if any, then
  // merges each worker's clones into the primaries in worker order.  A
  // rethrow poisons the driver: the primaries missed the pass's updates,
  // so every later begin_pass() throws std::logic_error (see poisoned()).
  ConcurrentIngestStats end_pass();

  // True once a worker exception poisoned a pass; the driver (and the
  // partially-fed processors) must be rebuilt, not reused.
  [[nodiscard]] bool poisoned() const noexcept { return poisoned_; }

  [[nodiscard]] std::size_t workers() const noexcept {
    return workers_.size();
  }

 private:
  struct Handoff {
    std::vector<EdgeUpdate> updates;
    bool pass_end = false;
  };

  struct Worker {
    explicit Worker(const ConcurrentIngestOptions& options)
        : inbox(options.queue_depth),
          recycled(options.queue_depth + 2) {}

    SpscQueue<Handoff> inbox;
    // Emptied batch vectors flow back to the front-end here, so the steady
    // state allocates nothing.
    SpscQueue<std::vector<EdgeUpdate>> recycled;

    // Written by the caller in begin_pass()/end_pass(), read by the worker
    // thread only between a ring pop (acquire) and the pass-done signal
    // (release) -- the ring orders the handoff.
    std::vector<std::unique_ptr<StreamProcessor>> shards;
    std::exception_ptr error;

    // Bumped once per completed pass; end_pass() waits on it.
    std::atomic<std::uint32_t> passes_done{0};

    // Front-end-only aggregation state.
    std::vector<EdgeUpdate> buffer;
    std::size_t flush_threshold = 0;

    std::thread thread;
  };

  void worker_loop(Worker& w);
  void flush(Worker& w, bool pass_end);
  [[nodiscard]] std::size_t next_threshold();

  ConcurrentIngestOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<StreamProcessor*> primaries_;  // current pass's merge targets
  ConcurrentIngestOptions::Router router_;   // resolved at begin_pass()
  Rng jitter_;
  bool in_pass_ = false;
  // Set when a worker exception poisoned a pass: the primaries missed that
  // pass's updates entirely, so further passes would silently diverge.
  // begin_pass() then throws std::logic_error.
  bool poisoned_ = false;
  std::uint32_t passes_begun_ = 0;
  ConcurrentIngestStats pass_stats_;
  std::atomic<bool> any_error_{false};
};

}  // namespace kw

#endif  // KW_ENGINE_CONCURRENT_INGEST_H
