#include "core/multipass_spanner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "serialize/serialize.h"

namespace kw {
namespace {

[[nodiscard]] MultipassConfig make_config(unsigned k, std::uint64_t seed) {
  MultipassConfig c;
  c.k = k;
  c.seed = seed;
  return c;
}

[[nodiscard]] bool subgraph_of(const Graph& h, const Graph& g) {
  for (const auto& e : h.edges()) {
    if (!g.has_edge(e.u, e.v)) return false;
  }
  return true;
}

TEST(Multipass, UsesExactlyKPasses) {
  const Graph g = erdos_renyi_gnm(80, 400, 1);
  for (const unsigned k : {2u, 3u, 4u}) {
    const DynamicStream stream = DynamicStream::from_graph(g, 2);
    const MultipassResult result =
        multipass_baswana_sen(stream, make_config(k, 3 + k));
    EXPECT_EQ(result.passes_used, k);
    EXPECT_EQ(stream.passes_used(), k);
  }
}

class MultipassSweep : public ::testing::TestWithParam<
                           std::tuple<std::string, unsigned>> {};

TEST_P(MultipassSweep, StretchBound2kMinus1) {
  const auto [family, k] = GetParam();
  const Graph g = make_family(family, 100, 600, 7);
  const DynamicStream stream = DynamicStream::from_graph(g, 11);
  const MultipassResult result =
      multipass_baswana_sen(stream, make_config(k, 13));
  EXPECT_TRUE(subgraph_of(result.spanner, g));
  const auto report = multiplicative_stretch(g, result.spanner, false);
  EXPECT_TRUE(report.connected_ok) << family << " k=" << k;
  EXPECT_LE(report.max_stretch, 2.0 * k - 1.0 + 1e-9)
      << family << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndK, MultipassSweep,
    ::testing::Combine(::testing::Values("er", "ba", "regular"),
                       ::testing::Values(2u, 3u)));

TEST(Multipass, DeletionsDoNotLeak) {
  const Graph g = erdos_renyi_gnm(80, 500, 17);
  const DynamicStream stream = DynamicStream::with_churn(g, 400, 19);
  const MultipassResult result =
      multipass_baswana_sen(stream, make_config(2, 23));
  EXPECT_TRUE(subgraph_of(result.spanner, g));
  const auto report = multiplicative_stretch(g, result.spanner, false);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(report.max_stretch, 3.0 + 1e-9);
}

TEST(Multipass, CompressesDenseGraphs) {
  const Graph g = erdos_renyi_gnm(128, 4000, 29);
  const DynamicStream stream = DynamicStream::from_graph(g, 31);
  const MultipassResult result =
      multipass_baswana_sen(stream, make_config(2, 37));
  EXPECT_LT(result.spanner.m(), g.m());
}

TEST(Multipass, K1KeepsNeighborhoods) {
  // k=1: a single final phase where every singleton cluster takes one edge
  // per neighboring cluster = the whole simple graph (stretch 1).
  const Graph g = erdos_renyi_gnm(40, 150, 41);
  const DynamicStream stream = DynamicStream::from_graph(g, 43);
  const MultipassResult result =
      multipass_baswana_sen(stream, make_config(1, 47));
  EXPECT_EQ(result.spanner.m(), g.m());
}

TEST(Multipass, EmptyStream) {
  const DynamicStream stream(16);
  const MultipassResult result =
      multipass_baswana_sen(stream, make_config(2, 53));
  EXPECT_EQ(result.spanner.m(), 0u);
}

// ---- goldens ---------------------------------------------------------------
//
// Pins everything a run produces -- the spanner edge list (as an FNV-1a
// digest over the sorted (u, v) pairs), |H|, the decode-miss counter and
// the nominal space claim -- over fixed seeds, k in {2, 3}, an ER graph
// (m = 8n) and a Barabasi-Albert graph, n = 256, each streamed with 2n
// churn pairs.  Any change to how the per-vertex key -> edge tables are
// stored or decoded must reproduce these exactly.

[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] std::uint64_t edge_digest(const Graph& g) {
  std::vector<Edge> edges = g.edges();
  for (Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.u, a.v) < std::tie(b.u, b.v);
  });
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Edge& e : edges) h = fnv1a(h, (std::uint64_t{e.u} << 32) | e.v);
  return h;
}

TEST(Multipass, GoldensPinned) {
  struct Golden {
    const char* family;  // "er" or "ba"
    unsigned k;
    std::uint64_t seed;
    std::size_t edges;
    std::uint64_t digest;
    std::size_t unrecovered;
    std::size_t nominal_bytes;
  };
  const Golden goldens[] = {
      {"er", 2, 1, 1940, 0x90df362fbee069a1ULL, 0, 315719728},
      {"er", 2, 2, 1952, 0x173d1b6aa4bee45dULL, 1, 315719728},
      {"er", 2, 3, 1965, 0x8145389703c61c6fULL, 1, 315719728},
      {"er", 2, 7, 1947, 0xc2620ebf641edba1ULL, 1, 315719728},
      {"er", 3, 1, 1304, 0xe1116e93025cdeecULL, 6, 189726792},
      {"er", 3, 2, 1572, 0x39199ea8b549f433ULL, 2, 189726792},
      {"er", 3, 3, 1584, 0x767c237853b3a4deULL, 4, 189726792},
      {"er", 3, 7, 1461, 0x64ae2ab57c523b02ULL, 5, 189726792},
      {"ba", 2, 1, 1976, 0x42740b0d8dd431b6ULL, 0, 315719728},
      {"ba", 2, 2, 1923, 0xc6f24e8a691a2377ULL, 5, 315719728},
      {"ba", 2, 3, 1824, 0xb9c363fa3c5bfa80ULL, 5, 315719728},
      {"ba", 2, 7, 1766, 0x4d0e6bfee4e4b901ULL, 4, 315719728},
      {"ba", 3, 1, 1473, 0x635041788b4fae7cULL, 7, 189726792},
      {"ba", 3, 2, 1419, 0x8597c3b389d92fedULL, 7, 189726792},
      {"ba", 3, 3, 1612, 0x66748eb69369ef32ULL, 5, 189726792},
      {"ba", 3, 7, 1578, 0x7958e6433b64acfeULL, 2, 189726792},
  };
  constexpr Vertex kN = 256;
  for (const Golden& want : goldens) {
    const std::string family = want.family;
    const Graph g = family == "er" ? erdos_renyi_gnm(kN, 8 * kN, want.seed)
                                   : barabasi_albert_graph(kN, 8, want.seed);
    const DynamicStream stream =
        DynamicStream::with_churn(g, 2 * kN, want.seed + 1);
    const MultipassResult result =
        multipass_baswana_sen(stream, make_config(want.k, want.seed));
    const std::string what = family + " k=" + std::to_string(want.k) +
                             " seed=" + std::to_string(want.seed);
    EXPECT_EQ(result.spanner.m(), want.edges) << what;
    EXPECT_EQ(edge_digest(result.spanner), want.digest) << what;
    EXPECT_EQ(result.unrecovered, want.unrecovered) << what;
    EXPECT_EQ(result.nominal_bytes, want.nominal_bytes) << what;
  }
}

TEST(Multipass, RejectsCheckpointFromBeforeKvTableBank) {
  // tests/data/multipass_lkvs_checkpoint.kwsk is a mid-phase-1 checkpoint
  // written while each vertex's table was a standalone key -> payload
  // sketch: n = 32, k = 2, seed 5, the first 8 updates of
  // with_churn(erdos_renyi_gnm(32, 96, 7), 64, 11).  Same envelope version,
  // but where a one-level KvTableBank stores its level count (1) the old
  // table stored its payload cell count, so the load must fail loudly.
  std::ifstream f(KW_SOURCE_DIR "/tests/data/multipass_lkvs_checkpoint.kwsk",
                  std::ios::binary);
  ASSERT_TRUE(f.is_open());
  std::ostringstream bytes;
  bytes << f.rdbuf();
  MultipassSpanner spanner(32, make_config(2, 5));
  try {
    ser::load_from_bytes(bytes.str(), spanner);
    FAIL() << "pre-KvTableBank checkpoint loaded";
  } catch (const ser::SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("KvTableBank levels"),
              std::string::npos)
        << e.what();
  }
}

TEST(Multipass, MidPhaseFixtureRestoresAndFinishes) {
  // tests/data/multipass_midphase_checkpoint.kwsk is a current-format
  // mid-phase-2 checkpoint, written while the re-homing samplers were a
  // standalone single-bank class: n = 16, k = 3, seed 5, the whole of
  // with_churn(erdos_renyi_gnm(16, 48, 7), 32, 11) (112 updates) in phase
  // 1, then one absorb() of its first 56 updates in phase 2.  It must load,
  // re-save to the same bytes, and finish phases 2 and 3 to the pinned
  // spanner.
  std::ifstream f(
      KW_SOURCE_DIR "/tests/data/multipass_midphase_checkpoint.kwsk",
      std::ios::binary);
  ASSERT_TRUE(f.is_open());
  std::ostringstream bytes;
  bytes << f.rdbuf();
  MultipassSpanner spanner(16, make_config(3, 5));
  ser::load_from_bytes(bytes.str(), spanner);
  EXPECT_TRUE(ser::save_to_bytes(spanner) == bytes.str());

  const DynamicStream stream =
      DynamicStream::with_churn(erdos_renyi_gnm(16, 48, 7), 32, 11);
  const std::span<const EdgeUpdate> ups(stream.updates());
  ASSERT_EQ(ups.size(), 112u);
  spanner.absorb(ups.subspan(56));
  spanner.advance_pass();
  spanner.absorb(ups);
  spanner.finish();
  const MultipassResult result = spanner.take_result();
  EXPECT_EQ(result.spanner.m(), 36u);
  EXPECT_EQ(edge_digest(result.spanner), 0xea043a61dca0a367ULL);
  EXPECT_EQ(result.unrecovered, 0u);
}

}  // namespace
}  // namespace kw
