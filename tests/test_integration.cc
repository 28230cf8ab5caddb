// End-to-end scenarios crossing module boundaries: distributed sketch
// merging, stream -> spanner -> query pipelines, and offline/streaming
// agreement on guarantees.
#include <gtest/gtest.h>

#include <cmath>

#include "agm/spanning_forest.h"
#include "baseline/baswana_sen.h"
#include "core/additive_spanner.h"
#include "graph/connectivity.h"
#include "core/offline_kw_spanner.h"
#include "core/two_pass_spanner.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "stream/dynamic_stream.h"

namespace kw {
namespace {

TEST(Integration, StreamingMatchesOfflineGuarantees) {
  // The streaming spanner and the offline reference run on the same graph;
  // both must satisfy Theorem 1's bounds (their edge sets may differ).
  const Graph g = erdos_renyi_gnm(100, 800, 3);
  const DynamicStream stream = DynamicStream::from_graph(g, 5);

  TwoPassConfig config;
  config.k = 2;
  config.seed = 7;
  TwoPassSpanner streaming(100, config);
  const TwoPassResult sr = streaming.run(stream);
  const OfflineKwResult offline = offline_kw_spanner(g, 2, 7);

  const auto stream_report = multiplicative_stretch(g, sr.spanner, false);
  const auto offline_report =
      multiplicative_stretch(g, offline.spanner, false);
  EXPECT_TRUE(stream_report.connected_ok);
  EXPECT_TRUE(offline_report.connected_ok);
  EXPECT_LE(stream_report.max_stretch, 4.0 + 1e-9);
  EXPECT_LE(offline_report.max_stretch, 4.0 + 1e-9);
}

TEST(Integration, DistanceQueryPipeline) {
  // Build the spanner from a churn stream, then answer distance queries
  // with bounded multiplicative error against the true graph.
  const Graph g = make_family("ba", 128, 500, 11);
  const DynamicStream stream = DynamicStream::with_churn(g, 300, 13);
  TwoPassConfig config;
  config.k = 2;
  config.seed = 17;
  TwoPassSpanner spanner_builder(g.n(), config);
  const TwoPassResult result = spanner_builder.run(stream);

  const auto d_g = bfs_distances(g, 0);
  const auto d_h = bfs_distances(result.spanner, 0);
  for (Vertex v = 1; v < g.n(); ++v) {
    if (d_g[v] == kUnreachableHops) continue;
    ASSERT_NE(d_h[v], kUnreachableHops);
    EXPECT_GE(d_h[v], d_g[v]);  // subgraph can only lengthen
    EXPECT_LE(d_h[v], 4u * d_g[v]);
  }
}

TEST(Integration, MultigraphChurnAdditivePipeline) {
  const Graph g = erdos_renyi_gnm(96, 700, 19);
  const DynamicStream stream =
      DynamicStream::with_multiplicity(g, 3, /*delete_back=*/true, 23);
  AdditiveConfig config;
  config.d = 6;
  config.seed = 29;
  AdditiveSpannerSketch sketch(96, config);
  const AdditiveResult result = sketch.run(stream);
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(static_cast<double>(report.max_surplus), 4.0 * 96.0 / 6.0);
}

TEST(Integration, DistributedServersMergeAgmSketches) {
  // Section 1's motivating setting: s servers each hold a slice of the
  // stream; the coordinator sums the linear sketches and extracts a
  // spanning forest of the union graph.
  const Graph g = erdos_renyi_gnm(80, 400, 31);
  const DynamicStream stream = DynamicStream::with_churn(g, 200, 37);
  const auto slices = stream.split(5);

  AgmConfig config;
  config.seed = 41;  // agreed-upon randomness (the sketching matrix S)
  std::vector<AgmGraphSketch> servers;
  for (int s = 0; s < 5; ++s) {
    servers.emplace_back(g.n(), config);
  }
  for (int s = 0; s < 5; ++s) servers[s].absorb(slices[s].updates());
  AgmGraphSketch coordinator = std::move(servers[0]);
  for (int s = 1; s < 5; ++s) coordinator.merge(servers[s], 1);
  const ForestResult forest = agm_spanning_forest(coordinator);
  EXPECT_TRUE(forest.complete);
  EXPECT_TRUE(
      same_partition(g, Graph::from_edges(g.n(), forest.edges)));
}

TEST(Integration, StreamingBeatsBaswanaSenStretchAtSamePasses) {
  // Not a performance claim -- a tradeoff demonstration: Baswana-Sen gets
  // stretch 3 but is offline; the 2-pass construction gets 2^k with
  // streaming access.  Both must respect their own bounds here.
  const Graph g = erdos_renyi_gnm(120, 1000, 43);
  const Graph bs = baswana_sen_spanner(g, 2, 47);
  const auto bs_report = multiplicative_stretch(g, bs, false);
  EXPECT_LE(bs_report.max_stretch, 3.0 + 1e-9);

  const DynamicStream stream = DynamicStream::from_graph(g, 53);
  TwoPassConfig config;
  config.k = 2;
  config.seed = 59;
  TwoPassSpanner streaming(120, config);
  const TwoPassResult sr = streaming.run(stream);
  const auto kw_report = multiplicative_stretch(g, sr.spanner, false);
  EXPECT_LE(kw_report.max_stretch, 4.0 + 1e-9);
}

TEST(Integration, SeedsGiveReproducibleSpanners) {
  const Graph g = erdos_renyi_gnm(64, 300, 61);
  const DynamicStream stream = DynamicStream::from_graph(g, 67);
  TwoPassConfig config;
  config.k = 2;
  config.seed = 71;
  TwoPassSpanner a(64, config);
  TwoPassSpanner b(64, config);
  const TwoPassResult ra = a.run(stream);
  const TwoPassResult rb = b.run(stream);
  ASSERT_EQ(ra.spanner.m(), rb.spanner.m());
  for (std::size_t i = 0; i < ra.spanner.m(); ++i) {
    EXPECT_EQ(ra.spanner.edges()[i].u, rb.spanner.edges()[i].u);
    EXPECT_EQ(ra.spanner.edges()[i].v, rb.spanner.edges()[i].v);
  }
}

}  // namespace
}  // namespace kw
