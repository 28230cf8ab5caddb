#include "agm/k_connectivity.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/min_cut.h"
#include "edge_digest.h"

namespace kw {
namespace {

[[nodiscard]] AgmConfig make_config(std::uint64_t seed) {
  AgmConfig c;
  c.rounds = 12;
  c.sampler_instances = 4;
  c.seed = seed;
  return c;
}

TEST(KConnectivity, ForestsAreEdgeDisjointSubgraphs) {
  const Graph g = erdos_renyi_gnm(60, 400, 3);
  const DynamicStream stream = DynamicStream::from_graph(g, 4);
  const KConnectivityResult result =
      KConnectivitySketch::from_stream(stream, 3, make_config(5));
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.forests.size(), 3u);
  std::set<std::pair<Vertex, Vertex>> seen;
  for (const auto& forest : result.forests) {
    for (const auto& e : forest) {
      EXPECT_TRUE(g.has_edge(e.u, e.v));
      EXPECT_TRUE(
          seen.insert({std::min(e.u, e.v), std::max(e.u, e.v)}).second)
          << "forests must be edge-disjoint";
    }
  }
}

TEST(KConnectivity, FirstForestSpans) {
  const Graph g = erdos_renyi_gnm(50, 300, 7);
  const DynamicStream stream = DynamicStream::from_graph(g, 8);
  const KConnectivityResult result =
      KConnectivitySketch::from_stream(stream, 2, make_config(9));
  ASSERT_TRUE(result.complete);
  EXPECT_TRUE(same_partition(
      g, Graph::from_edges(g.n(), result.forests[0])));
}

TEST(KConnectivity, CertificatePreservesSmallCuts) {
  // Nagamochi-Ibaraki property: min(lambda(G), k) <= lambda(cert) <=
  // lambda(G).  (The union of k forests may be even better connected than
  // k; only the lower bound is guaranteed.)
  const Graph g = hypercube_graph(4);  // lambda = 4
  const DynamicStream stream = DynamicStream::from_graph(g, 11);
  for (const std::size_t k : {1u, 2u, 3u}) {
    const KConnectivityResult result =
        KConnectivitySketch::from_stream(stream, k, make_config(13 + k));
    ASSERT_TRUE(result.complete) << "k=" << k;
    const std::size_t lambda = edge_connectivity(result.certificate);
    EXPECT_GE(lambda, k) << "certificate lost a small cut at k=" << k;
    EXPECT_LE(lambda, 4u);
  }
}

TEST(KConnectivity, DetectsLowConnectivity) {
  // Barbell has a bridge: even a k=3 certificate must show lambda = 1.
  const Graph g = barbell_graph(8, 2);
  const DynamicStream stream = DynamicStream::from_graph(g, 17);
  const KConnectivityResult result =
      KConnectivitySketch::from_stream(stream, 3, make_config(19));
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(edge_connectivity(result.certificate), 1u);
}

TEST(KConnectivity, CertificateSizeBounded) {
  // <= k (n - 1) edges by construction.
  const Graph g = erdos_renyi_gnm(80, 1200, 23);
  const DynamicStream stream = DynamicStream::from_graph(g, 29);
  const KConnectivityResult result =
      KConnectivitySketch::from_stream(stream, 4, make_config(31));
  EXPECT_LE(result.certificate.m(), 4u * (g.n() - 1));
  EXPECT_LT(result.certificate.m(), g.m());
}

TEST(KConnectivity, DeletionsHandled) {
  const Graph g = cycle_graph(24);
  const DynamicStream stream = DynamicStream::with_churn(g, 100, 37);
  const KConnectivityResult result =
      KConnectivitySketch::from_stream(stream, 2, make_config(41));
  ASSERT_TRUE(result.complete);
  for (const auto& forest : result.forests) {
    for (const auto& e : forest) {
      EXPECT_TRUE(g.has_edge(e.u, e.v)) << "phantom edge leaked";
    }
  }
  EXPECT_EQ(edge_connectivity(result.certificate), 2u);
}

TEST(KConnectivity, DistributedMerge) {
  const Graph g = erdos_renyi_gnm(40, 240, 43);
  const DynamicStream stream = DynamicStream::from_graph(g, 47);
  const auto parts = stream.split(3);
  KConnectivitySketch a(g.n(), 2, make_config(53));
  KConnectivitySketch b(g.n(), 2, make_config(53));
  KConnectivitySketch c(g.n(), 2, make_config(53));
  a.absorb(parts[0].updates());
  b.absorb(parts[1].updates());
  c.absorb(parts[2].updates());
  a.merge(b, 1);
  a.merge(c, 1);
  const KConnectivityResult result = std::move(a).extract();
  ASSERT_TRUE(result.complete);
  EXPECT_TRUE(same_partition(
      g, Graph::from_edges(g.n(), result.forests[0])));
}

TEST(KConnectivity, RejectsZeroK) {
  EXPECT_THROW(KConnectivitySketch(10, 0, make_config(1)),
               std::invalid_argument);
}

// ---- goldens ---------------------------------------------------------------
//
// Pins the certificate (FNV-1a digest over its sorted edges, |certificate|,
// completeness) and every layer's decode-failure count for k = 3 over fixed
// seeds, an ER graph (m = 8n) and a Barabasi-Albert graph, n = 256, each
// streamed with 2n churn pairs.  Layers 2 and 3 decode only after the
// earlier forests are subtracted from them, so any change to how bank cells
// are written -- during the stream or by that subtraction -- must reproduce
// these exactly.
TEST(KConnectivity, GoldensPinned) {
  struct Golden {
    const char* family;  // "er" or "ba"
    std::uint64_t seed;
    std::size_t edges;
    std::uint64_t digest;
    bool complete;
    std::size_t failures[3];  // per layer
  };
  const Golden goldens[] = {
      {"er", 1, 765, 0x680f22e0254af75dULL, true, {1, 2, 3}},
      {"er", 2, 765, 0xaa1bef9276c881c7ULL, true, {0, 1, 0}},
      {"er", 3, 765, 0x5a806a3f2fbc9020ULL, true, {0, 3, 1}},
      {"er", 7, 765, 0x230b038c1acc4051ULL, true, {0, 1, 4}},
      {"ba", 1, 765, 0xcd7d06ec03355bc7ULL, true, {2, 4, 4}},
      {"ba", 2, 765, 0x4c4d3dea14eb895aULL, true, {1, 4, 2}},
      {"ba", 3, 765, 0x676fe406f0a980abULL, true, {2, 0, 2}},
      {"ba", 7, 765, 0xa29981da4ab96c99ULL, true, {1, 0, 2}},
  };
  constexpr Vertex kN = 256;
  for (const Golden& want : goldens) {
    const std::string family = want.family;
    const Graph g = family == "er" ? erdos_renyi_gnm(kN, 8 * kN, want.seed)
                                   : barabasi_albert_graph(kN, 8, want.seed);
    const DynamicStream stream =
        DynamicStream::with_churn(g, 2 * kN, want.seed + 1);
    const KConnectivityResult result =
        KConnectivitySketch::from_stream(stream, 3, make_config(want.seed));
    const std::string what = family + " seed=" + std::to_string(want.seed);
    EXPECT_EQ(result.certificate.m(), want.edges) << what;
    EXPECT_EQ(edge_digest(result.certificate), want.digest) << what;
    EXPECT_EQ(result.complete, want.complete) << what;
    ASSERT_EQ(result.decode_failures_per_layer.size(), 3u) << what;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(result.decode_failures_per_layer[i], want.failures[i])
          << what << " layer " << i;
    }
  }
}

}  // namespace
}  // namespace kw
