// StreamEngine: pass accounting, multi-algorithm fan-out over shared
// physical passes, sharded (threaded) ingestion via clone_empty()/merge(),
// unbuffered generator sources, and the engine-level pass-contract check.
#include "engine/stream_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "agm/k_connectivity.h"
#include "agm/spanning_forest.h"
#include "core/additive_spanner.h"
#include "core/kp12_sparsifier.h"
#include "core/multipass_spanner.h"
#include "core/two_pass_spanner.h"
#include "engine/processors.h"
#include "graph/generators.h"
#include "util/random.h"

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

[[nodiscard]] TwoPassConfig spanner_config(std::uint64_t seed) {
  TwoPassConfig c;
  c.k = 2;
  c.seed = seed;
  return c;
}

[[nodiscard]] Kp12Config kp12_config(std::uint64_t seed) {
  Kp12Config c;
  c.k = 2;
  c.seed = seed;
  c.j_copies = 2;
  c.z_samples = 2;
  c.t_levels = 3;
  return c;
}

// ---- fan-out: one run, many algorithms, shared passes ---------------------

TEST(StreamEngine, FanOutMatchesLegacyPerAlgorithmRuns) {
  const Graph g = erdos_renyi_gnm(48, 240, 3);
  const DynamicStream stream = DynamicStream::with_churn(g, 120, 5);

  // One engine run drives a spanner, a KP12 sparsifier, and an AGM forest
  // over the same two physical passes.
  TwoPassSpanner spanner(g.n(), spanner_config(7));
  Kp12Sparsifier sparsifier(g.n(), kp12_config(9));
  AgmConfig agm_config;
  agm_config.seed = 11;
  SpanningForestProcessor forest(g.n(), agm_config);

  stream.reset_pass_count();
  StreamEngine engine;
  engine.attach(spanner).attach(sparsifier).attach(forest);
  const EngineRunStats stats = engine.run(stream);
  EXPECT_EQ(stats.passes, 2u);
  EXPECT_EQ(stats.updates_per_pass, stream.size());
  EXPECT_EQ(stream.passes_used(), 2u);  // all three shared the two passes

  // Legacy per-algorithm paths on fresh instances.
  const TwoPassResult legacy_spanner =
      TwoPassSpanner(g.n(), spanner_config(7)).run(stream);
  const Kp12Result legacy_sparsifier =
      Kp12Sparsifier(g.n(), kp12_config(9)).run(stream);
  AgmGraphSketch legacy_sketch(g.n(), agm_config);
  legacy_sketch.absorb(stream.updates());
  const ForestResult legacy_forest = agm_spanning_forest(legacy_sketch);

  EXPECT_EQ(edge_list(spanner.take_result().spanner),
            edge_list(legacy_spanner.spanner));
  EXPECT_EQ(edge_list(sparsifier.take_result().sparsifier),
            edge_list(legacy_sparsifier.sparsifier));
  const ForestResult engine_forest = forest.take_result();
  EXPECT_EQ(engine_forest.complete, legacy_forest.complete);
  EXPECT_EQ(edge_list(Graph::from_edges(g.n(), engine_forest.edges)),
            edge_list(Graph::from_edges(g.n(), legacy_forest.edges)));
}

TEST(StreamEngine, MixedPassCountsFinishEachProcessorOnItsOwnBudget) {
  const Graph g = erdos_renyi_gnm(40, 160, 13);
  const DynamicStream stream = DynamicStream::from_graph(g, 17);

  AdditiveConfig add_config;
  add_config.d = 4.0;
  add_config.seed = 19;
  AdditiveSpannerSketch additive(g.n(), add_config);  // 1 pass
  TwoPassSpanner spanner(g.n(), spanner_config(23));  // 2 passes

  stream.reset_pass_count();
  StreamEngine engine;
  engine.attach(additive).attach(spanner);
  const EngineRunStats stats = engine.run(stream);
  EXPECT_EQ(stats.passes, 2u);  // max over processors
  EXPECT_EQ(stream.passes_used(), 2u);

  // The single-pass processor saw only pass 1 and matches its solo run.
  const AdditiveResult solo =
      AdditiveSpannerSketch(g.n(), add_config).run(stream);
  EXPECT_EQ(edge_list(additive.take_result().spanner),
            edge_list(solo.spanner));
  EXPECT_EQ(edge_list(spanner.take_result().spanner),
            edge_list(TwoPassSpanner(g.n(), spanner_config(23))
                          .run(stream)
                          .spanner));
}

// ---- pass budgets match each theorem --------------------------------------

TEST(StreamEngine, PassAccountingMatchesTheoremBudgets) {
  const Graph g = erdos_renyi_gnm(36, 140, 29);
  const DynamicStream stream = DynamicStream::from_graph(g, 31);

  {  // Theorem 1: two passes.
    stream.reset_pass_count();
    (void)TwoPassSpanner(g.n(), spanner_config(37)).run(stream);
    EXPECT_EQ(stream.passes_used(), 2u);
  }
  {  // Theorem 3: one pass.
    AdditiveConfig c;
    c.seed = 41;
    stream.reset_pass_count();
    (void)AdditiveSpannerSketch(g.n(), c).run(stream);
    EXPECT_EQ(stream.passes_used(), 1u);
  }
  {  // [AGM12b]: k passes.
    MultipassConfig c;
    c.k = 3;
    c.seed = 43;
    stream.reset_pass_count();
    const MultipassResult r = multipass_baswana_sen(stream, c);
    EXPECT_EQ(stream.passes_used(), 3u);
    EXPECT_EQ(r.passes_used, 3u);
  }
  {  // Corollary 2: two passes for the whole sparsifier pipeline.
    stream.reset_pass_count();
    (void)Kp12Sparsifier(g.n(), kp12_config(47)).run(stream);
    EXPECT_EQ(stream.passes_used(), 2u);
  }
}

// ---- sharded ingestion ----------------------------------------------------

[[nodiscard]] Graph extract_graph(TwoPassSpanner& p) {
  return p.take_result().spanner;
}
[[nodiscard]] Graph extract_graph(AdditiveSpannerSketch& p) {
  return p.take_result().spanner;
}
[[nodiscard]] Graph extract_graph(MultipassSpanner& p) {
  return p.take_result().spanner;
}
[[nodiscard]] Graph extract_graph(Kp12Sparsifier& p) {
  return p.take_result().sparsifier;
}
[[nodiscard]] Graph extract_graph(SpanningForestProcessor& p) {
  const ForestResult r = p.take_result();
  return Graph::from_edges(p.n(), r.edges);
}
[[nodiscard]] Graph extract_graph(KConnectivitySketch& p) {
  return p.take_result().certificate;
}

template <class Processor, class MakeProcessor>
void expect_sharded_matches_sequential(const DynamicStream& stream,
                                       MakeProcessor make,
                                       std::size_t shards) {
  Processor sequential = make();
  StreamEngine seq_engine;
  seq_engine.attach(sequential);
  (void)seq_engine.run(stream);

  Processor sharded = make();
  StreamEngine par_engine(StreamEngineOptions{256, shards});
  par_engine.attach(sharded);
  const EngineRunStats stats = par_engine.run(stream);
  EXPECT_EQ(stats.shards, shards);

  EXPECT_EQ(edge_list(extract_graph(sequential)),
            edge_list(extract_graph(sharded)));
}

TEST(StreamEngine, ShardedTwoPassSpannerMatchesSequential) {
  const Graph g = erdos_renyi_gnm(48, 240, 53);
  const DynamicStream stream = DynamicStream::with_churn(g, 120, 59);
  expect_sharded_matches_sequential<TwoPassSpanner>(
      stream, [&] { return TwoPassSpanner(g.n(), spanner_config(61)); }, 4);
}

TEST(StreamEngine, ShardedAdditiveSpannerMatchesSequential) {
  const Graph g = erdos_renyi_gnm(48, 300, 67);
  const DynamicStream stream = DynamicStream::with_churn(g, 150, 71);
  AdditiveConfig c;
  c.d = 4.0;
  c.seed = 73;
  expect_sharded_matches_sequential<AdditiveSpannerSketch>(
      stream, [&] { return AdditiveSpannerSketch(g.n(), c); }, 4);
}

TEST(StreamEngine, ShardedMultipassSpannerMatchesSequential) {
  const Graph g = erdos_renyi_gnm(40, 200, 79);
  const DynamicStream stream = DynamicStream::from_graph(g, 83);
  MultipassConfig c;
  c.k = 3;
  c.seed = 89;
  expect_sharded_matches_sequential<MultipassSpanner>(
      stream, [&] { return MultipassSpanner(g.n(), c); }, 5);
}

TEST(StreamEngine, ShardedKp12SparsifierMatchesSequential) {
  const Graph g = erdos_renyi_gnm(32, 140, 97);
  const DynamicStream stream = DynamicStream::from_graph(g, 101);
  expect_sharded_matches_sequential<Kp12Sparsifier>(
      stream, [&] { return Kp12Sparsifier(g.n(), kp12_config(103)); }, 4);
}

TEST(StreamEngine, ShardedAgmForestMatchesSequential) {
  const Graph g = erdos_renyi_gnm(64, 320, 107);
  const DynamicStream stream = DynamicStream::with_churn(g, 160, 109);
  AgmConfig c;
  c.seed = 113;
  expect_sharded_matches_sequential<SpanningForestProcessor>(
      stream, [&] { return SpanningForestProcessor(g.n(), c); }, 6);
}

TEST(StreamEngine, ShardedKConnectivityMatchesSequential) {
  const Graph g = erdos_renyi_gnm(48, 260, 127);
  const DynamicStream stream = DynamicStream::from_graph(g, 131);
  AgmConfig c;
  c.seed = 137;
  expect_sharded_matches_sequential<KConnectivitySketch>(
      stream, [&] { return KConnectivitySketch(g.n(), 2, c); }, 4);
}

TEST(StreamEngine, ShardedBaselineMaterializationMatchesSequential) {
  const Graph g = erdos_renyi_gnm(40, 200, 139);
  const DynamicStream stream = DynamicStream::with_churn(g, 100, 149);

  auto sequential = greedy_spanner_processor(g.n(), 2);
  StreamEngine seq_engine;
  seq_engine.attach(*sequential);
  (void)seq_engine.run(stream);

  auto sharded = greedy_spanner_processor(g.n(), 2);
  StreamEngine par_engine(StreamEngineOptions{128, /*shards=*/4});
  par_engine.attach(*sharded);
  (void)par_engine.run(stream);

  EXPECT_EQ(edge_list(sequential->graph()), edge_list(g));
  EXPECT_EQ(edge_list(sequential->result()), edge_list(sharded->result()));
}

TEST(StreamEngine, DemuxRoutesEachUpdateToOneLaneAndShards) {
  const Graph g = erdos_renyi_gnm(32, 120, 211);
  DynamicStream stream(g.n());
  Graph even(g.n());
  Graph odd(g.n());
  for (std::size_t i = 0; i < g.edges().size(); ++i) {
    const auto& e = g.edges()[i];
    const double w = i % 2 == 0 ? 1.0 : 2.0;
    stream.push({e.u, e.v, +1, w});
    (i % 2 == 0 ? even : odd).add_edge(e.u, e.v, w);
  }
  auto run_demux = [&](std::size_t shards) {
    MaterializeProcessor lane0(g.n());
    MaterializeProcessor lane1(g.n());
    DemuxProcessor demux(std::vector<StreamProcessor*>{&lane0, &lane1},
                         [](const EdgeUpdate& u) {
                           return static_cast<std::size_t>(u.weight > 1.5);
                         });
    StreamEngine engine(StreamEngineOptions{16, shards});
    engine.attach(demux);
    (void)engine.run(stream);
    return std::make_pair(edge_list(lane0.graph()), edge_list(lane1.graph()));
  };
  const auto sequential = run_demux(1);
  EXPECT_EQ(sequential.first, edge_list(even));
  EXPECT_EQ(sequential.second, edge_list(odd));
  EXPECT_EQ(run_demux(4), sequential);
}

// ---- batching and sources -------------------------------------------------

TEST(StreamEngine, BatchSizeDoesNotChangeOutputs) {
  const Graph g = erdos_renyi_gnm(40, 180, 151);
  const DynamicStream stream = DynamicStream::with_churn(g, 90, 157);
  std::vector<std::tuple<Vertex, Vertex, double>> reference;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{4096}}) {
    TwoPassSpanner spanner(g.n(), spanner_config(163));
    StreamEngine engine(StreamEngineOptions{batch, /*shards=*/1});
    engine.attach(spanner);
    (void)engine.run(stream);
    const auto edges = edge_list(spanner.take_result().spanner);
    if (reference.empty()) {
      reference = edges;
    } else {
      EXPECT_EQ(edges, reference);
    }
  }
}

TEST(StreamEngine, GeneratorSourceMatchesMaterializedStream) {
  const Vertex n = 40;
  const std::size_t m = 200;
  // The generator synthesizes the updates on demand -- nothing buffered --
  // and regenerates the identical sequence each pass via fresh seeding.
  auto factory = [n, m]() -> GeneratorSource::PassFn {
    auto rng = std::make_shared<Rng>(167);
    auto emitted = std::make_shared<std::size_t>(0);
    return [n, m, rng, emitted]() -> std::optional<EdgeUpdate> {
      while (*emitted < m) {
        const auto u = static_cast<Vertex>(rng->next_below(n));
        const auto v = static_cast<Vertex>(rng->next_below(n));
        if (u == v) continue;
        ++*emitted;
        return EdgeUpdate{u, v, +1, 1.0};
      }
      return std::nullopt;
    };
  };
  GeneratorSource source(n, factory);

  // Materialize the same sequence for the reference run.
  DynamicStream stream(n);
  {
    auto pass = factory();
    for (auto u = pass(); u.has_value(); u = pass()) stream.push(*u);
  }
  ASSERT_EQ(stream.size(), m);

  TwoPassSpanner from_generator(n, spanner_config(173));
  StreamEngine engine;
  engine.attach(from_generator);
  const EngineRunStats stats = engine.run(source);
  EXPECT_EQ(stats.passes, 2u);
  EXPECT_EQ(stats.updates_per_pass, m);

  const TwoPassResult reference =
      TwoPassSpanner(n, spanner_config(173)).run(stream);
  EXPECT_EQ(edge_list(from_generator.take_result().spanner),
            edge_list(reference.spanner));
}

// ---- contract enforcement -------------------------------------------------

TEST(StreamEngine, RejectsEmptyEngineAndMismatchedVertexSets) {
  const DynamicStream stream = DynamicStream::from_graph(path_graph(8), 1);
  StreamEngine empty;
  EXPECT_THROW((void)empty.run(stream), std::logic_error);

  TwoPassSpanner wrong_n(16, spanner_config(3));
  StreamEngine engine;
  engine.attach(wrong_n);
  EXPECT_THROW((void)engine.run(stream), std::logic_error);
}

namespace {
// A processor without linear-merge support: clone_empty() stays nullptr.
class NonMergeableProcessor final : public StreamProcessor {
 public:
  explicit NonMergeableProcessor(Vertex n) : n_(n) {}
  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return 1;
  }
  [[nodiscard]] Vertex n() const noexcept override { return n_; }
  void absorb(std::span<const EdgeUpdate>) override {}
  void advance_pass() override {}
  void finish() override {}

 private:
  Vertex n_;
};
}  // namespace

TEST(StreamEngine, ShardingRequiresMergeableProcessors) {
  const DynamicStream stream = DynamicStream::from_graph(path_graph(8), 1);
  NonMergeableProcessor processor(8);
  StreamEngine engine(StreamEngineOptions{64, /*shards=*/3});
  engine.attach(processor);
  // Still a descriptive std::logic_error under the concurrent driver: the
  // message names the processor type and the clone_empty() contract.
  try {
    (void)engine.run(stream);
    FAIL() << "sharded run over an unshardable processor must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("clone_empty"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("NonMergeableProcessor"),
              std::string::npos);
  }
}

TEST(StreamEngine, ShardedStatsAccountingIsExact) {
  // The driver's accounting is deterministic: updates routed by lo-endpoint
  // into per-shard buffers of `batch_size` updates, one non-empty flush per
  // filled (or remainder) buffer.  Recompute the expected batch count from
  // the same routing rule and require exact agreement.
  const Graph g = erdos_renyi_gnm(40, 180, 211);
  const DynamicStream stream = DynamicStream::with_churn(g, 90, 223);
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kBatch = 7;

  std::array<std::size_t, kShards> per_shard{};
  for (const EdgeUpdate& u : stream.updates()) {
    ++per_shard[static_cast<std::size_t>(std::min(u.u, u.v)) % kShards];
  }
  std::size_t expected_batches = 0;
  for (const std::size_t count : per_shard) {
    expected_batches += (count + kBatch - 1) / kBatch;  // ceil
  }

  AgmConfig config;
  config.seed = 227;
  SpanningForestProcessor processor(g.n(), config);
  StreamEngine engine(StreamEngineOptions{kBatch, kShards});
  engine.attach(processor);
  const EngineRunStats stats = engine.run(stream);
  EXPECT_EQ(stats.shards, kShards);
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.updates_per_pass, stream.size());
  EXPECT_EQ(stats.batches, expected_batches);
  (void)processor.take_result();
}

namespace {
// Mergeable, but every worker-clone absorb() fails after a few batches: the
// engine must surface the worker's exception on the caller thread instead
// of deadlocking the pass-end drain barrier.
class FaultyCloneProcessor final : public StreamProcessor {
 public:
  explicit FaultyCloneProcessor(Vertex n, bool is_clone = false)
      : n_(n), is_clone_(is_clone) {}
  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return 1;
  }
  [[nodiscard]] Vertex n() const noexcept override { return n_; }
  void absorb(std::span<const EdgeUpdate>) override {
    if (is_clone_ && ++absorbed_ >= 3) {
      throw std::runtime_error("FaultyCloneProcessor: injected worker fault");
    }
  }
  void advance_pass() override {}
  void finish() override {}
  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override {
    return std::make_unique<FaultyCloneProcessor>(n_, /*is_clone=*/true);
  }
  void merge(StreamProcessor&&) override {}

 private:
  Vertex n_;
  bool is_clone_;
  std::size_t absorbed_ = 0;
};
}  // namespace

TEST(StreamEngine, WorkerExceptionPropagatesWithoutDeadlockingTheBarrier) {
  const Graph g = erdos_renyi_gnm(32, 160, 229);
  const DynamicStream stream = DynamicStream::with_churn(g, 200, 233);
  FaultyCloneProcessor processor(g.n());
  StreamEngine engine(StreamEngineOptions{/*batch_size=*/4, /*shards=*/3});
  engine.attach(processor);
  // Must throw the worker's exception type (not hang, not logic_error).
  EXPECT_THROW((void)engine.run(stream), std::runtime_error);
}

namespace {
// A rogue processor that replays the stream out-of-band during absorb() --
// the bespoke-pass-plumbing bug class the engine-level check catches.
class RogueReplayProcessor final : public StreamProcessor {
 public:
  explicit RogueReplayProcessor(const DynamicStream& stream)
      : stream_(&stream) {}
  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return 1;
  }
  [[nodiscard]] Vertex n() const noexcept override { return stream_->n(); }
  void absorb(std::span<const EdgeUpdate>) override {
    if (!replayed_) {
      replayed_ = true;
      stream_->replay([](const EdgeUpdate&) {});  // sneaky extra pass
    }
  }
  void advance_pass() override {}
  void finish() override {}

 private:
  const DynamicStream* stream_;
  bool replayed_ = false;
};
}  // namespace

TEST(StreamEngine, DetectsOutOfBandReplays) {
  const DynamicStream stream = DynamicStream::from_graph(path_graph(8), 1);
  RogueReplayProcessor rogue(stream);
  StreamEngine engine;
  engine.attach(rogue);
  EXPECT_THROW((void)engine.run(stream), std::logic_error);
}

TEST(StreamEngine, ProcessorsRejectOutOfPhaseCalls) {
  const DynamicStream stream = DynamicStream::from_graph(path_graph(8), 1);
  MaterializeProcessor processor(8);
  StreamEngine::run_single(processor, stream);
  EXPECT_EQ(edge_list(processor.graph()),
            edge_list(stream.materialize()));
  const EdgeUpdate update{0, 1, +1, 1.0};
  EXPECT_THROW(processor.absorb({&update, 1}), std::logic_error);
  EXPECT_THROW(processor.finish(), std::logic_error);
  EXPECT_THROW(processor.advance_pass(), std::logic_error);
}

}  // namespace
}  // namespace kw
