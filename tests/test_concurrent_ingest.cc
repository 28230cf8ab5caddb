// The concurrent ingest driver's determinism wall.
//
// Every feature of engine/concurrent_ingest.h lands behind a differential
// test pinning sharded(N) == sequential EXACTLY -- not approximately.  The
// shardable stages are linear functions of the update vector, so the merged
// worker clones must be bit-identical to sequential ingestion regardless of
// how updates were partitioned across workers, how aggregation buffers were
// flushed, or how the OS interleaved the threads.  These tests sweep all
// three axes adversarially: shard counts, batch sizes, churn split across
// shards, hostile routing (one shard, round-robin, power-law), and seeded
// random flush ordering -- plus the SPSC ring's own contract and the
// queue-full backpressure behavior (blocks, never drops).
#include "engine/concurrent_ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "agm/k_connectivity.h"
#include "agm/spanning_forest.h"
#include "core/kp12_sparsifier.h"
#include "engine/processors.h"
#include "engine/stream_engine.h"
#include "graph/generators.h"
#include "sketch/bank_group.h"
#include "stream/dynamic_stream.h"
#include "util/random.h"
#include "util/spsc_queue.h"

namespace kw {
namespace {

[[nodiscard]] std::vector<std::tuple<Vertex, Vertex, double>> edge_list(
    const Graph& g) {
  std::vector<std::tuple<Vertex, Vertex, double>> edges;
  for (const auto& e : g.edges()) {
    edges.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v), e.weight);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

[[nodiscard]] bool cells_equal(const BankGroup& a, const BankGroup& b) {
  if (a.groups() != b.groups() || a.vertices() != b.vertices()) return false;
  for (std::size_t g = 0; g < a.groups(); ++g) {
    for (std::size_t v = 0; v < a.vertices(); ++v) {
      const auto sa = a.stripe(g, v);
      const auto sb = b.stripe(g, v);
      if (sa.size() != sb.size()) return false;
      for (std::size_t c = 0; c < sa.size(); ++c) {
        if (sa[c].count != sb[c].count || sa[c].coord_sum != sb[c].coord_sum ||
            sa[c].fp1 != sb[c].fp1 || sa[c].fp2 != sb[c].fp2) {
          return false;
        }
      }
    }
  }
  return true;
}

[[nodiscard]] Kp12Config small_kp12_config(std::uint64_t seed) {
  Kp12Config c;
  c.k = 2;
  c.seed = seed;
  c.j_copies = 2;
  c.z_samples = 2;
  c.t_levels = 3;
  return c;
}

[[nodiscard]] std::vector<std::size_t> sweep_shards() {
  std::vector<std::size_t> shards = {1, 2, 7};
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (std::find(shards.begin(), shards.end(), hw) == shards.end()) {
    shards.push_back(hw);
  }
  return shards;
}

// ---- differential bit-identity: every shardable processor -----------------
//
// sharded(N) == sequential for shard counts {1, 2, 7, hardware_concurrency}
// x batch sizes {1, 17, 16384, the engine default, one batch longer than
// the whole stream}, on churn streams (insert+delete pairs in full effect).
// `Extract` maps a finished processor to a comparable graph.

template <class Processor, class Make, class Extract>
void expect_bit_identity_sweep(const DynamicStream& stream, Make make,
                               Extract extract) {
  Processor sequential = make();
  StreamEngine seq_engine;
  seq_engine.attach(sequential);
  (void)seq_engine.run(stream);
  const auto reference = edge_list(extract(sequential));

  for (const std::size_t shards : sweep_shards()) {
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{17}, std::size_t{16384},
          kDefaultBatchSize, stream.size() + 1}) {
      Processor sharded = make();
      StreamEngine engine(StreamEngineOptions{batch, shards});
      engine.attach(sharded);
      const EngineRunStats stats = engine.run(stream);
      EXPECT_EQ(stats.shards, shards);
      EXPECT_EQ(stats.updates_per_pass, stream.size());
      EXPECT_EQ(edge_list(extract(sharded)), reference)
          << "shards=" << shards << " batch=" << batch;
    }
  }
}

TEST(ConcurrentIngest, SpanningForestBitIdentityAcrossShardsAndBatches) {
  const Graph g = erdos_renyi_gnm(64, 320, 7);
  const DynamicStream stream = DynamicStream::with_churn(g, 160, 11);
  AgmConfig config;
  config.seed = 13;
  expect_bit_identity_sweep<SpanningForestProcessor>(
      stream, [&] { return SpanningForestProcessor(g.n(), config); },
      [](SpanningForestProcessor& p) {
        return Graph::from_edges(p.n(), p.take_result().edges);
      });
}

TEST(ConcurrentIngest, KConnectivityBitIdentityAcrossShardsAndBatches) {
  const Graph g = erdos_renyi_gnm(48, 260, 17);
  const DynamicStream stream = DynamicStream::with_churn(g, 130, 19);
  AgmConfig config;
  config.seed = 23;
  expect_bit_identity_sweep<KConnectivitySketch>(
      stream, [&] { return KConnectivitySketch(g.n(), 2, config); },
      [](KConnectivitySketch& p) { return p.take_result().certificate; });
}

TEST(ConcurrentIngest, Kp12BitIdentityAcrossShardsAndBatches) {
  // Both KP12 passes shard: pass 1 (the spanner's sketches) and pass 2 (the
  // sparsifier's SAMPLE/SPARSIFY aggregation) are linear stages, and the
  // driver re-takes clones at the pass boundary so control state advances.
  const Graph g = erdos_renyi_gnm(32, 140, 29);
  const DynamicStream stream = DynamicStream::from_graph(g, 31);
  expect_bit_identity_sweep<Kp12Sparsifier>(
      stream, [&] { return Kp12Sparsifier(g.n(), small_kp12_config(37)); },
      [](Kp12Sparsifier& p) { return p.take_result().sparsifier; });
}

// ---- churn split across shards --------------------------------------------
//
// Round-robin routing sends an edge's insertion and its deletion to
// DIFFERENT workers, so no worker sees a cancelled pair -- cancellation only
// happens in the merge.  The merged cells must still be bit-identical to
// sequential ingestion (where the pair cancels inside one batch dedupe).

TEST(ConcurrentIngest, ChurnInsertedAndDeletedAcrossDifferentShards) {
  const Graph full = erdos_renyi_gnm(48, 240, 41);
  DynamicStream stream(full.n());
  // Insert everything, delete everything, re-insert a surviving half: every
  // deleted edge's +1 and -1 are separated by the whole stream prefix.
  for (const auto& e : full.edges()) stream.push({e.u, e.v, +1, e.weight});
  for (const auto& e : full.edges()) stream.push({e.u, e.v, -1, e.weight});
  for (std::size_t i = 0; i < full.edges().size(); i += 2) {
    const auto& e = full.edges()[i];
    stream.push({e.u, e.v, +1, e.weight});
  }

  AgmConfig config;
  config.seed = 43;
  SpanningForestProcessor sequential(full.n(), config);
  StreamEngine seq_engine;
  seq_engine.attach(sequential);
  (void)seq_engine.run(stream);

  StreamEngineOptions options{/*batch_size=*/17, /*shards=*/3};
  options.shard_router = [i = std::size_t{0}](const EdgeUpdate&,
                                              std::size_t shards) mutable {
    return i++ % shards;
  };
  SpanningForestProcessor sharded(full.n(), config);
  StreamEngine engine(options);
  engine.attach(sharded);
  (void)engine.run(stream);

  EXPECT_TRUE(cells_equal(sequential.sketch().bank_group(),
                          sharded.sketch().bank_group()));
  EXPECT_EQ(edge_list(Graph::from_edges(full.n(),
                                        sequential.take_result().edges)),
            edge_list(Graph::from_edges(full.n(),
                                        sharded.take_result().edges)));
}

// ---- adversarial routing + random flush ordering --------------------------
//
// Deliberately unbalanced partitions and seeded-random flush thresholds must
// all merge to the exact sequential cells: linearity does not care where an
// update went or when its buffer was flushed.

TEST(ConcurrentIngest, AdversarialRoutingStillMatchesSequentialCells) {
  const Graph g = erdos_renyi_gnm(48, 260, 47);
  const DynamicStream stream = DynamicStream::with_churn(g, 130, 53);
  AgmConfig config;
  config.seed = 59;

  KConnectivitySketch sequential(g.n(), 2, config);
  StreamEngine seq_engine;
  seq_engine.attach(sequential);
  (void)seq_engine.run(stream);
  const auto reference = edge_list(sequential.take_result().certificate);

  struct NamedRouter {
    const char* name;
    ConcurrentIngestOptions::Router fn;
  };
  const std::vector<NamedRouter> routers = {
      {"all-to-one",
       [](const EdgeUpdate&, std::size_t) { return std::size_t{0}; }},
      {"round-robin",
       [i = std::size_t{0}](const EdgeUpdate&, std::size_t shards) mutable {
         return i++ % shards;
       }},
      {"power-law", [](const EdgeUpdate& u, std::size_t shards) {
         // ~70% of updates pile onto shard 0, the tail spreads by hash.
         const std::uint64_t h = splitmix64(
             (static_cast<std::uint64_t>(u.u) << 32) ^ u.v ^
             static_cast<std::uint64_t>(u.delta > 0 ? 1 : 2));
         if (shards == 1 || h % 100 < 70) return std::size_t{0};
         return 1 + static_cast<std::size_t>(h / 100) % (shards - 1);
       }},
  };

  for (const auto& router : routers) {
    for (const std::uint64_t jitter_seed : {0ULL, 1ULL, 42ULL}) {
      StreamEngineOptions options{/*batch_size=*/64, /*shards=*/4};
      options.shard_router = router.fn;
      options.shard_flush_jitter_seed = jitter_seed;
      KConnectivitySketch sharded(g.n(), 2, config);
      StreamEngine engine(options);
      engine.attach(sharded);
      (void)engine.run(stream);
      EXPECT_TRUE(
          cells_equal(sequential.bank_group(), sharded.bank_group()))
          << router.name << " jitter=" << jitter_seed;
      EXPECT_EQ(edge_list(sharded.take_result().certificate), reference)
          << router.name << " jitter=" << jitter_seed;
    }
  }
}

TEST(ConcurrentIngest, RandomFlushOrderingSeedSweep) {
  const Graph g = erdos_renyi_gnm(40, 200, 61);
  const DynamicStream stream = DynamicStream::with_churn(g, 100, 67);
  AgmConfig config;
  config.seed = 71;

  SpanningForestProcessor sequential(g.n(), config);
  StreamEngine seq_engine;
  seq_engine.attach(sequential);
  (void)seq_engine.run(stream);
  const auto reference =
      edge_list(Graph::from_edges(g.n(), sequential.take_result().edges));

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    StreamEngineOptions options{/*batch_size=*/23, /*shards=*/3};
    options.shard_flush_jitter_seed = seed;
    SpanningForestProcessor sharded(g.n(), config);
    StreamEngine engine(options);
    engine.attach(sharded);
    (void)engine.run(stream);
    EXPECT_EQ(edge_list(Graph::from_edges(g.n(),
                                          sharded.take_result().edges)),
              reference)
        << "jitter seed " << seed;
  }
}

// ---- degenerate shapes ----------------------------------------------------

TEST(ConcurrentIngest, EmptyAndTinyStreamsAcrossManyWorkers) {
  AgmConfig config;
  config.seed = 73;
  {  // Empty pass: markers flow, no batches, empty forest.
    const DynamicStream empty(16);
    SpanningForestProcessor p(16, config);
    StreamEngine engine(StreamEngineOptions{/*batch_size=*/8, /*shards=*/7});
    engine.attach(p);
    const EngineRunStats stats = engine.run(empty);
    EXPECT_EQ(stats.updates_per_pass, 0u);
    EXPECT_EQ(stats.batches, 0u);
    EXPECT_TRUE(p.take_result().edges.empty());
  }
  {  // One update, more workers than updates.
    DynamicStream one(16);
    one.push({3, 9, +1, 1.0});
    SpanningForestProcessor p(16, config);
    StreamEngine engine(StreamEngineOptions{/*batch_size=*/8, /*shards=*/7});
    engine.attach(p);
    const EngineRunStats stats = engine.run(one);
    EXPECT_EQ(stats.updates_per_pass, 1u);
    EXPECT_EQ(stats.batches, 1u);
    const ForestResult r = p.take_result();
    ASSERT_EQ(r.edges.size(), 1u);
    const auto [lo, hi] = std::minmax(r.edges[0].u, r.edges[0].v);
    EXPECT_EQ(lo, 3u);
    EXPECT_EQ(hi, 9u);
  }
}

// ---- backpressure: blocks, never drops ------------------------------------

namespace {
// A deliberately slow consumer: every absorb() sleeps, so a tiny ring fills
// and the front-end must block.  Linear (counts per pair), hence shardable.
class SlowMaterialize final : public StreamProcessor {
 public:
  explicit SlowMaterialize(Vertex n) : inner_(n) {}
  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return 1;
  }
  [[nodiscard]] Vertex n() const noexcept override { return inner_.n(); }
  void absorb(std::span<const EdgeUpdate> batch) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    inner_.absorb(batch);
  }
  void advance_pass() override { inner_.advance_pass(); }
  void finish() override { inner_.finish(); }
  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override {
    return std::make_unique<SlowMaterialize>(inner_.n());
  }
  void merge(StreamProcessor&& other) override {
    inner_.merge(std::move(static_cast<SlowMaterialize&>(other).inner_));
  }
  [[nodiscard]] const Graph& graph() const { return inner_.graph(); }

 private:
  MaterializeProcessor inner_;
};
}  // namespace

TEST(ConcurrentIngest, SlowConsumerBackpressureBlocksAndLosesNothing) {
  const Graph g = erdos_renyi_gnm(32, 160, 79);
  const DynamicStream stream = DynamicStream::from_graph(g, 83);

  SlowMaterialize slow(g.n());
  ConcurrentIngestOptions options;
  options.workers = 2;
  options.flush_capacity = 4;  // many tiny flushes
  options.queue_depth = 1;     // ring fills after one batch in flight
  ConcurrentIngestDriver driver(options);

  std::vector<StreamProcessor*> procs{&slow};
  driver.begin_pass(procs);
  driver.push({stream.updates().data(), stream.updates().size()});
  const ConcurrentIngestStats stats = driver.end_pass();
  slow.finish();

  EXPECT_EQ(stats.updates, stream.size());
  // Every update reached a worker: 160 updates in <=4-update flushes.
  EXPECT_GE(stats.batches, stream.size() / options.flush_capacity);
  // The ring filled while a worker slept inside absorb(): the front-end
  // must have blocked (and nothing may be dropped -- checked below).
  EXPECT_GT(stats.backpressure_waits, 0u);
  EXPECT_EQ(edge_list(slow.graph()), edge_list(g));
}

// ---- multi-pass persistence ----------------------------------------------

TEST(ConcurrentIngest, WorkersPersistAcrossPassesOfOneDriver) {
  // Drive two passes through ONE driver by hand (the engine does exactly
  // this for a two-pass processor): clones are re-taken at begin_pass, so
  // per-pass control state advances while the threads persist.
  const Graph g = erdos_renyi_gnm(24, 100, 89);
  const DynamicStream stream = DynamicStream::from_graph(g, 97);

  MaterializeProcessor a(g.n());
  ConcurrentIngestOptions options;
  options.workers = 3;
  options.flush_capacity = 8;
  ConcurrentIngestDriver driver(options);
  std::vector<StreamProcessor*> procs{&a};

  driver.begin_pass(procs);
  driver.push({stream.updates().data(), stream.updates().size()});
  const ConcurrentIngestStats first = driver.end_pass();
  EXPECT_EQ(first.updates, stream.size());

  // Second pass over the same updates: multiplicities double.
  driver.begin_pass(procs);
  driver.push({stream.updates().data(), stream.updates().size()});
  const ConcurrentIngestStats second = driver.end_pass();
  EXPECT_EQ(second.updates, stream.size());

  a.finish();
  EXPECT_EQ(edge_list(a.graph()), edge_list(g));  // multiplicity>0 = edge
}

// ---- the SPSC ring itself -------------------------------------------------

TEST(SpscQueue, FifoOrderAndTryVariants) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  int v = 1;
  EXPECT_TRUE(q.try_push(v));
  (void)q.push(2);
  (void)q.push(3);
  int out = 0;
  EXPECT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(q.try_pop(out));
}

TEST(SpscQueue, TryPushReportsFullWithoutDropping) {
  SpscQueue<int> q(2);
  (void)q.push(1);
  (void)q.push(2);
  int v = 3;
  EXPECT_FALSE(q.try_push(v));
  EXPECT_EQ(v, 3);  // untouched on failure
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_TRUE(q.try_push(v));
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 3);
}

TEST(SpscQueue, CloseDrainsThenReportsTerminal) {
  SpscQueue<int> q(4);
  (void)q.push(7);
  (void)q.push(8);
  q.close();
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(q.pop(out));
  EXPECT_FALSE(q.pop(out));  // terminal, stays false
}

TEST(SpscQueue, BlockingHandoffAcrossThreads) {
  // Producer pushes more than the ring holds; consumer is slow.  All items
  // must arrive, in order, with the producer having blocked at least once.
  SpscQueue<std::size_t> q(2);
  constexpr std::size_t kItems = 200;
  std::size_t producer_waits = 0;
  std::thread producer([&] {
    for (std::size_t i = 0; i < kItems; ++i) producer_waits += q.push(i);
    q.close();
  });
  std::vector<std::size_t> received;
  std::size_t item = 0;
  while (q.pop(item)) {
    received.push_back(item);
    if (received.size() % 16 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  producer.join();
  ASSERT_EQ(received.size(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i);
}

}  // namespace
}  // namespace kw
