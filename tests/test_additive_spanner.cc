#include "core/additive_spanner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <tuple>

#include "graph/generators.h"
#include "edge_digest.h"
#include "graph/shortest_paths.h"
#include "serialize/serialize.h"

namespace kw {
namespace {

[[nodiscard]] AdditiveConfig make_config(double d, std::uint64_t seed) {
  AdditiveConfig c;
  c.d = d;
  c.seed = seed;
  return c;
}

[[nodiscard]] bool subgraph_of(const Graph& h, const Graph& g) {
  for (const auto& e : h.edges()) {
    if (!g.has_edge(e.u, e.v)) return false;
  }
  return true;
}

TEST(Additive, SinglePassOnly) {
  const Graph g = erdos_renyi_gnm(64, 400, 1);
  const DynamicStream stream = DynamicStream::from_graph(g, 2);
  AdditiveSpannerSketch sketch(64, make_config(4, 3));
  (void)sketch.run(stream);
  EXPECT_EQ(stream.passes_used(), 1u);
}

TEST(Additive, SpannerIsSubgraphAndConnectedOk) {
  const Graph g = erdos_renyi_gnm(128, 1500, 5);
  const DynamicStream stream = DynamicStream::from_graph(g, 7);
  AdditiveSpannerSketch sketch(128, make_config(6, 11));
  const AdditiveResult result = sketch.run(stream);
  EXPECT_TRUE(result.diagnostics.healthy());
  EXPECT_TRUE(subgraph_of(result.spanner, g));
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_TRUE(report.connected_ok);
}

TEST(Additive, DistortionBoundedByNOverD) {
  // Theorem 19: distortion O(n/d).  Constant 4 is generous for our knobs.
  const Vertex n = 128;
  const Graph g = erdos_renyi_gnm(n, 1200, 13);
  const DynamicStream stream = DynamicStream::from_graph(g, 17);
  const double d = 8.0;
  AdditiveSpannerSketch sketch(n, make_config(d, 19));
  const AdditiveResult result = sketch.run(stream);
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(static_cast<double>(report.max_surplus),
            4.0 * static_cast<double>(n) / d);
}

TEST(Additive, DeletionsHandled) {
  const Graph g = erdos_renyi_gnm(96, 800, 23);
  const DynamicStream stream = DynamicStream::with_churn(g, 600, 29);
  AdditiveSpannerSketch sketch(96, make_config(6, 31));
  const AdditiveResult result = sketch.run(stream);
  EXPECT_TRUE(subgraph_of(result.spanner, g))
      << "phantom (deleted) edge leaked into the spanner";
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_TRUE(report.connected_ok);
}

TEST(Additive, SparseGraphFullyKept) {
  // When every degree is below the threshold, E_low = E and the spanner is
  // exact (distortion 0).
  const Graph g = path_graph(100);
  const DynamicStream stream = DynamicStream::from_graph(g, 37);
  AdditiveSpannerSketch sketch(100, make_config(8, 41));
  const AdditiveResult result = sketch.run(stream);
  EXPECT_EQ(result.spanner.m(), g.m());
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_EQ(report.max_surplus, 0u);
}

TEST(Additive, DenseGraphIsCompressed) {
  // K_n with small d: space ~n*d, spanner must drop most edges.
  const Graph g = complete_graph(96);
  const DynamicStream stream = DynamicStream::from_graph(g, 43);
  AdditiveConfig config = make_config(3, 47);
  config.threshold_factor = 0.5;
  AdditiveSpannerSketch sketch(96, config);
  const AdditiveResult result = sketch.run(stream);
  EXPECT_LT(result.spanner.m(), g.m() / 2);
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_TRUE(report.connected_ok);
  // Theorem 19 scale: O(n/d) = 32 here; cluster detours stay well inside.
  EXPECT_LE(static_cast<double>(report.max_surplus), 96.0 / 3.0);
}

TEST(Additive, SpaceGrowsWithD) {
  const Vertex n = 64;
  AdditiveSpannerSketch small(n, make_config(2, 53));
  AdditiveSpannerSketch large(n, make_config(16, 53));
  const DynamicStream stream =
      DynamicStream::from_graph(erdos_renyi_gnm(n, 200, 59), 61);
  const AdditiveResult rs = small.run(stream);
  const AdditiveResult rl = large.run(stream);
  EXPECT_LT(rs.nominal_bytes, rl.nominal_bytes);
}

// Distortion sweep over d (Theorem 3's tradeoff).
class AdditiveD : public ::testing::TestWithParam<double> {};

TEST_P(AdditiveD, TradeoffHolds) {
  const double d = GetParam();
  const Vertex n = 96;
  const Graph g = erdos_renyi_gnm(n, 900, 67);
  const DynamicStream stream = DynamicStream::from_graph(g, 71);
  AdditiveSpannerSketch sketch(n, make_config(d, 73));
  const AdditiveResult result = sketch.run(stream);
  const auto report = additive_surplus(g, result.spanner);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(static_cast<double>(report.max_surplus),
            std::max(4.0, 4.0 * static_cast<double>(n) / d));
}

INSTANTIATE_TEST_SUITE_P(DSweep, AdditiveD,
                         ::testing::Values(2.0, 4.0, 8.0, 16.0));

TEST(Additive, CenterFlagAccessible) {
  AdditiveSpannerSketch sketch(32, make_config(4, 79));
  std::size_t centers = 0;
  for (Vertex v = 0; v < 32; ++v) {
    if (sketch.is_center(v)) ++centers;
  }
  // Rate 2/d = 1/2: expect some but not all.
  EXPECT_GT(centers, 4u);
  EXPECT_LT(centers, 30u);
}

TEST(Additive, CenterSamplerAttachesOnlyAboveDTwo) {
  // The center rate center_rate_factor / d is clamped to 1, so at the
  // default factor 2 every vertex is a center for d <= 2: no vertex
  // attaches and every cluster is a singleton (the trivial regime).  At
  // d = 4 the rate is 1/2 and high-degree non-centers attach.  m = 32n puts
  // every vertex above the degree threshold at both d.
  constexpr Vertex kN = 256;
  const Graph g = erdos_renyi_gnm(kN, 32 * kN, 1);
  const DynamicStream stream = DynamicStream::from_graph(g, 1);
  AdditiveSpannerSketch trivial(kN, make_config(2, 1));
  AdditiveSpannerSketch sampled(kN, make_config(4, 1));
  EXPECT_EQ(trivial.run(stream).diagnostics.clusters, kN);
  EXPECT_LT(sampled.run(stream).diagnostics.clusters, kN);
}

TEST(Additive, FinishTwiceThrows) {
  AdditiveSpannerSketch sketch(16, make_config(2, 83));
  const EdgeUpdate edge{0, 1, 1, 1.0};
  sketch.absorb({&edge, 1});
  (void)sketch.finish();
  EXPECT_THROW((void)sketch.finish(), std::logic_error);
  EXPECT_THROW(sketch.absorb({&edge, 1}), std::logic_error);
}

// ---- goldens ---------------------------------------------------------------
//
// Pins everything a run produces -- the spanner (FNV-1a digest over its
// sorted edges, |H|), every diagnostic and the nominal space claim -- over
// fixed seeds, an ER graph (m = 8n) and a Barabasi-Albert graph, n = 256,
// each streamed with 2n churn pairs.  d = 4 with threshold_factor 0.5 puts
// the degree threshold (16) at the ER mean degree, so every run has
// low-degree vertices (E_low, subtracted from the AGM sketch at finish),
// attached high-degree vertices (the center bank) and a contracted forest.
[[nodiscard]] AdditiveConfig golden_config(std::uint64_t seed) {
  AdditiveConfig c = make_config(4, seed);
  c.threshold_factor = 0.5;
  return c;
}

TEST(Additive, GoldensPinned) {
  struct Golden {
    const char* family;  // "er" or "ba"
    std::uint64_t seed;
    std::size_t edges;
    std::uint64_t digest;
    AdditiveDiagnostics diagnostics;
    std::size_t nominal_bytes;
  };
  const Golden goldens[] = {
      {"er", 1, 1283, 0xc57bcf3c095e90c2ULL, {113, 0, 0, 184, 4, true}, 11589768},
      {"er", 2, 1331, 0x711d6834fea058d6ULL, {114, 2, 0, 188, 5, true}, 11589768},
      {"er", 3, 1360, 0x386f64792abe3423ULL, {117, 0, 0, 192, 3, true}, 11589768},
      {"er", 7, 1410, 0x57c396ab31a62830ULL, {125, 1, 1, 187, 4, true}, 11589768},
      {"ba", 1, 1549, 0x05f4d7100a7dac06ULL, {182, 0, 0, 220, 4, true}, 11589768},
      {"ba", 2, 1554, 0x3482559aca75e29eULL, {183, 2, 0, 224, 4, true}, 11589768},
      {"ba", 3, 1525, 0xe8febd060bbc159fULL, {180, 0, 0, 225, 4, true}, 11589768},
      {"ba", 7, 1519, 0x02cd6925cf649906ULL, {179, 0, 0, 215, 4, true}, 11589768},
  };
  constexpr Vertex kN = 256;
  for (const Golden& want : goldens) {
    const std::string family = want.family;
    const Graph g = family == "er" ? erdos_renyi_gnm(kN, 8 * kN, want.seed)
                                   : barabasi_albert_graph(kN, 8, want.seed);
    const DynamicStream stream =
        DynamicStream::with_churn(g, 2 * kN, want.seed + 1);
    AdditiveSpannerSketch sketch(kN, golden_config(want.seed));
    const AdditiveResult result = sketch.run(stream);
    const std::string what = family + " seed=" + std::to_string(want.seed);
    const AdditiveDiagnostics& got = result.diagnostics;
    const AdditiveDiagnostics& exp = want.diagnostics;
    EXPECT_EQ(result.spanner.m(), want.edges) << what;
    EXPECT_EQ(edge_digest(result.spanner), want.digest) << what;
    EXPECT_EQ(got.low_degree_vertices, exp.low_degree_vertices) << what;
    EXPECT_EQ(got.low_decode_failures, exp.low_decode_failures) << what;
    EXPECT_EQ(got.unattached_high_degree, exp.unattached_high_degree) << what;
    EXPECT_EQ(got.clusters, exp.clusters) << what;
    EXPECT_EQ(got.forest_rounds, exp.forest_rounds) << what;
    EXPECT_EQ(got.forest_complete, exp.forest_complete) << what;
    EXPECT_EQ(result.nominal_bytes, want.nominal_bytes) << what;
  }
}

TEST(Additive, MidPassFixtureRestoresAndFinishes) {
  // tests/data/additive_midpass_checkpoint.kwsk was written while the
  // center samplers were a standalone single-bank class: n = 16, d = 4,
  // threshold_factor 0.25, seed 5, after one absorb() of the first 56 of
  // the 112 updates of with_churn(erdos_renyi_gnm(16, 48, 7), 32, 11).  It
  // must load, re-save to the same bytes, and finish the pass to the
  // pinned spanner.
  std::ifstream f(KW_SOURCE_DIR "/tests/data/additive_midpass_checkpoint.kwsk",
                  std::ios::binary);
  ASSERT_TRUE(f.is_open());
  std::ostringstream bytes;
  bytes << f.rdbuf();
  AdditiveConfig config = make_config(4, 5);
  config.threshold_factor = 0.25;
  AdditiveSpannerSketch sketch(16, config);
  ser::load_from_bytes(bytes.str(), sketch);
  EXPECT_TRUE(ser::save_to_bytes(sketch) == bytes.str());

  const DynamicStream stream =
      DynamicStream::with_churn(erdos_renyi_gnm(16, 48, 7), 32, 11);
  const std::vector<EdgeUpdate>& ups = stream.updates();
  ASSERT_EQ(ups.size(), 112u);
  sketch.absorb(std::span<const EdgeUpdate>(ups).subspan(56));
  sketch.finish();
  const AdditiveResult result = sketch.take_result();
  EXPECT_EQ(result.spanner.m(), 17u);
  EXPECT_EQ(edge_digest(result.spanner), 0xf0252aa3dd910db1ULL);
  EXPECT_EQ(result.diagnostics.low_degree_vertices, 2u);
  EXPECT_EQ(result.diagnostics.clusters, 10u);
}

}  // namespace
}  // namespace kw
