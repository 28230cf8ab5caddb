#include "agm/neighborhood_sketch.h"
#include "agm/spanning_forest.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "edge_digest.h"
#include "engine/stream_engine.h"
#include "stream/dynamic_stream.h"

namespace kw {
namespace {

[[nodiscard]] AgmConfig make_config(std::uint64_t seed) {
  AgmConfig c;
  c.rounds = 12;
  c.sampler_instances = 4;
  c.seed = seed;
  return c;
}

[[nodiscard]] AgmGraphSketch sketch_graph(const Graph& g,
                                          std::uint64_t seed) {
  AgmGraphSketch sketch(g.n(), make_config(seed));
  std::vector<EdgeUpdate> batch;
  for (const auto& e : g.edges()) batch.push_back({e.u, e.v});
  sketch.absorb(batch);
  return sketch;
}

TEST(AgmSketch, SummedMemberSketchesCancelInternalEdges) {
  // Component {0,1,2} fully internal + one boundary edge (2,3): the summed
  // sketch must see exactly the boundary edge.
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const AgmGraphSketch sketch = sketch_graph(g, 1);
  const BankGroup& bank = sketch.bank_group();
  std::vector<OneSparseCell> acc(bank.cells_per_stripe());
  for (const Vertex v : {0u, 1u, 2u}) bank.accumulate(acc, 0, v, 1);
  const auto rec = bank.decode_cells(0, acc);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->coord, pair_id(2, 3, 5));
}

TEST(AgmSketch, WholeGraphSumIsZero) {
  const Graph g = erdos_renyi_gnm(40, 120, 3);
  const AgmGraphSketch sketch = sketch_graph(g, 2);
  const BankGroup& bank = sketch.bank_group();
  for (std::size_t round = 0; round < 3; ++round) {
    std::vector<OneSparseCell> acc(bank.cells_per_stripe());
    for (Vertex v = 0; v < g.n(); ++v) bank.accumulate(acc, round, v, 1);
    EXPECT_TRUE(BankGroup::cells_zero(acc)) << "interior edges must cancel";
  }
}

TEST(SpanningForest, ConnectedGraphFullTree) {
  const Graph g = erdos_renyi_gnm(60, 240, 5);
  ASSERT_EQ(component_count(g), 1u);
  const AgmGraphSketch sketch = sketch_graph(g, 3);
  const ForestResult forest = agm_spanning_forest(sketch);
  EXPECT_TRUE(forest.complete);
  EXPECT_EQ(forest.edges.size(), g.n() - 1u);
  // Every forest edge must be a real edge of g.
  for (const auto& e : forest.edges) EXPECT_TRUE(g.has_edge(e.u, e.v));
  EXPECT_TRUE(same_partition(g, Graph::from_edges(g.n(), forest.edges)));
}

TEST(SpanningForest, MultipleComponentsMatched) {
  Graph g(30);
  // Three disjoint paths.
  for (Vertex base : {0u, 10u, 20u}) {
    for (Vertex i = 0; i + 1 < 10; ++i) {
      g.add_edge(base + i, base + i + 1);
    }
  }
  const AgmGraphSketch sketch = sketch_graph(g, 4);
  const ForestResult forest = agm_spanning_forest(sketch);
  EXPECT_TRUE(forest.complete);
  EXPECT_EQ(forest.edges.size(), 27u);  // 3 components of 10 vertices
  EXPECT_TRUE(same_partition(g, Graph::from_edges(g.n(), forest.edges)));
}

TEST(SpanningForest, DeletionsChangeConnectivity) {
  // Build a cycle, then delete one edge through the sketch: still connected.
  // Delete a second edge: two components.
  const Graph g = cycle_graph(20);
  AgmGraphSketch sketch = sketch_graph(g, 5);
  const EdgeUpdate first{0, 1, -1};
  sketch.absorb({&first, 1});
  {
    AgmGraphSketch copy = sketch;
    const ForestResult forest = agm_spanning_forest(copy);
    EXPECT_TRUE(forest.complete);
    EXPECT_EQ(forest.edges.size(), 19u);
  }
  const EdgeUpdate second{10, 11, -1};
  sketch.absorb({&second, 1});
  const ForestResult forest = agm_spanning_forest(sketch);
  EXPECT_TRUE(forest.complete);
  EXPECT_EQ(forest.edges.size(), 18u);
}

TEST(SpanningForest, SupernodePartitionRespected) {
  // Star of 3-cliques: collapse each clique; forest connects the cliques.
  Graph g(12);
  for (Vertex base = 0; base < 12; base += 3) {
    g.add_edge(base, base + 1);
    g.add_edge(base + 1, base + 2);
    g.add_edge(base, base + 2);
  }
  g.add_edge(2, 3);
  g.add_edge(5, 6);
  g.add_edge(8, 9);
  const AgmGraphSketch sketch = sketch_graph(g, 6);
  std::vector<std::uint32_t> partition(12);
  for (Vertex v = 0; v < 12; ++v) partition[v] = v / 3;
  const ForestResult forest = agm_spanning_forest(sketch, partition);
  EXPECT_TRUE(forest.complete);
  ASSERT_EQ(forest.edges.size(), 3u);  // 4 supernodes -> 3 edges
  for (const auto& e : forest.edges) {
    EXPECT_NE(e.u / 3, e.v / 3) << "forest edge must cross supernodes";
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
}

TEST(SpanningForest, SubtractEdgesViaLinearity) {
  // Path 0-1-2-3; subtracting the middle edge after the fact must split it.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  AgmGraphSketch sketch = sketch_graph(g, 7);
  const BankPairUpdate minus{1, 2, pair_id(1, 2, 4), -1};
  sketch.ingest_staged({&minus, 1});
  const ForestResult forest = agm_spanning_forest(sketch);
  EXPECT_TRUE(forest.complete);
  EXPECT_EQ(forest.edges.size(), 2u);
}

TEST(SpanningForest, MergeOfDistributedSketches) {
  // Two servers each see half the stream; merged sketch answers for the
  // union (the distributed setting of Section 1).
  const Graph g = erdos_renyi_gnm(50, 150, 8);
  const DynamicStream stream = DynamicStream::from_graph(g, 9);
  const auto parts = stream.split(2);
  AgmGraphSketch s0(50, make_config(10));
  AgmGraphSketch s1(50, make_config(10));  // same seed: mergeable
  s0.absorb(parts[0].updates());
  s1.absorb(parts[1].updates());
  s0.merge(s1, 1);
  const ForestResult forest = agm_spanning_forest(s0);
  EXPECT_TRUE(forest.complete);
  EXPECT_TRUE(same_partition(g, Graph::from_edges(g.n(), forest.edges)));
}

TEST(AgmSketch, MultiplicityAndChurn) {
  const Graph g = erdos_renyi_gnm(40, 100, 11);
  const DynamicStream stream = DynamicStream::with_churn(g, 120, 12);
  AgmGraphSketch sketch(40, make_config(13));
  sketch.absorb(stream.updates());
  const ForestResult forest = agm_spanning_forest(sketch);
  EXPECT_TRUE(forest.complete);
  for (const auto& e : forest.edges) {
    EXPECT_TRUE(g.has_edge(e.u, e.v)) << "phantom churn edge leaked";
  }
  EXPECT_TRUE(same_partition(g, Graph::from_edges(g.n(), forest.edges)));
}

TEST(AgmSketch, IncompatibleMergeThrows) {
  AgmGraphSketch a(10, make_config(1));
  AgmGraphSketch b(10, make_config(2));
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// ---- goldens ---------------------------------------------------------------
//
// Pins the spanning forest (FNV-1a digest over its sorted edges, |F|,
// Boruvka rounds used, completeness) and its decode-failure count over
// fixed seeds, an ER graph (m = 8n) and a Barabasi-Albert graph, n = 256,
// each streamed with 2n churn pairs through the engine.
TEST(SpanningForest, GoldensPinned) {
  struct Golden {
    const char* family;  // "er" or "ba"
    std::uint64_t seed;
    std::size_t edges;
    std::uint64_t digest;
    std::size_t decode_failures;
    std::size_t rounds_used;
    bool complete;
  };
  const Golden goldens[] = {
      {"er", 1, 255, 0xfb0693cd945b1e22ULL, 3, 4, true},
      {"er", 2, 255, 0x5cfc0af62111115aULL, 2, 4, true},
      {"er", 3, 255, 0x8a157966483527e0ULL, 0, 5, true},
      {"er", 7, 255, 0x5406e4dfde90a7a5ULL, 2, 5, true},
      {"ba", 1, 255, 0xf99738360145f704ULL, 0, 5, true},
      {"ba", 2, 255, 0x8469105eb67e48d8ULL, 1, 4, true},
      {"ba", 3, 255, 0xb24ca662b19c7896ULL, 0, 4, true},
      {"ba", 7, 255, 0x3cec60fac51352b8ULL, 4, 4, true},
  };
  constexpr Vertex kN = 256;
  for (const Golden& want : goldens) {
    const std::string family = want.family;
    const Graph g = family == "er" ? erdos_renyi_gnm(kN, 8 * kN, want.seed)
                                   : barabasi_albert_graph(kN, 8, want.seed);
    const DynamicStream stream =
        DynamicStream::with_churn(g, 2 * kN, want.seed + 1);
    SpanningForestProcessor processor(kN, make_config(want.seed));
    StreamEngine::run_single(processor, stream);
    const ForestResult forest = processor.take_result();
    const std::string what = family + " seed=" + std::to_string(want.seed);
    EXPECT_EQ(forest.edges.size(), want.edges) << what;
    EXPECT_EQ(edge_digest(forest.edges), want.digest) << what;
    EXPECT_EQ(forest.decode_failures, want.decode_failures) << what;
    EXPECT_EQ(forest.rounds_used, want.rounds_used) << what;
    EXPECT_EQ(forest.complete, want.complete) << what;
  }
}

}  // namespace
}  // namespace kw
