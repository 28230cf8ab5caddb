#include "core/kp12_sparsifier.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "graph/spectral_compare.h"
#include "reference/kp12_scalar_reference.h"
#include "util/bit_util.h"
#include "util/hashing.h"
#include "util/prime_field.h"

namespace kw {
namespace {

[[nodiscard]] Kp12Config small_config(std::uint64_t seed) {
  Kp12Config c;
  c.k = 2;
  c.epsilon = 0.5;
  c.seed = seed;
  c.j_copies = 4;
  c.z_samples = 6;
  c.spanner.k = 2;
  c.spanner.pass1_budget = 4;
  c.spanner.pass1_rows = 3;
  return c;
}

TEST(Kp12, TwoPassesTotal) {
  const Graph g = erdos_renyi_gnm(48, 200, 1);
  const DynamicStream stream = DynamicStream::from_graph(g, 2);
  Kp12Sparsifier sparsifier(48, small_config(3));
  (void)sparsifier.run(stream);
  EXPECT_EQ(stream.passes_used(), 2u);
}

TEST(Kp12, OutputsOnlyRealEdges) {
  const Graph g = erdos_renyi_gnm(48, 250, 5);
  const DynamicStream stream = DynamicStream::from_graph(g, 7);
  Kp12Sparsifier sparsifier(48, small_config(11));
  const Kp12Result result = sparsifier.run(stream);
  EXPECT_GT(result.sparsifier.m(), 0u);
  for (const auto& e : result.sparsifier.edges()) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    EXPECT_GT(e.weight, 0.0);
  }
}

TEST(Kp12, PreservesConnectivityStructure) {
  // Two well-separated communities joined by one bridge: the sparsifier
  // must keep the bridge (robust connectivity ~2^-t* and the bridge enters
  // the level-t* sample with probability 2^-t*, so Z controls the miss
  // probability; bump it for this structural assertion).
  const Graph g = barbell_graph(12, 3);
  const DynamicStream stream = DynamicStream::from_graph(g, 13);
  Kp12Config config = small_config(17);
  config.z_samples = 24;
  Kp12Sparsifier sparsifier(g.n(), config);
  const Kp12Result result = sparsifier.run(stream);
  // Same component structure.
  EXPECT_EQ(component_count(result.sparsifier), component_count(g));
}

TEST(Kp12, SpectralQualityModerate) {
  // Quality is constant-factor at these scaled-down knobs (the paper's
  // constants are asymptotic); the bench tracks the detailed envelope.
  const Graph g = erdos_renyi_gnm(40, 300, 19);
  const DynamicStream stream = DynamicStream::from_graph(g, 23);
  Kp12Sparsifier sparsifier(40, small_config(29));
  const Kp12Result result = sparsifier.run(stream);
  const SpectralEnvelope env = spectral_envelope(g, result.sparsifier);
  EXPECT_TRUE(env.comparable);
  EXPECT_GT(env.min_eigenvalue, 0.0) << "sparsifier lost connectivity mass";
  EXPECT_LT(env.max_eigenvalue, 12.0) << "weights blew up";
}

TEST(Kp12, DeletionsRespected) {
  const Graph g = erdos_renyi_gnm(40, 200, 31);
  const DynamicStream stream = DynamicStream::with_churn(g, 200, 37);
  Kp12Sparsifier sparsifier(40, small_config(41));
  const Kp12Result result = sparsifier.run(stream);
  for (const auto& e : result.sparsifier.edges()) {
    EXPECT_TRUE(g.has_edge(e.u, e.v)) << "phantom edge in sparsifier";
  }
}

// ---- survive_level closed form (the PR-5 bugfix) --------------------------

// The historical per-level loop the closed form replaced: largest L with
// L <= max_level such that h < kFieldPrime >> L (nested dyadic subsampling).
[[nodiscard]] std::size_t survive_level_loop(std::uint64_t h,
                                             std::size_t max_level) {
  std::size_t level = 0;
  while (level + 1 <= max_level && h < (kFieldPrime >> (level + 1))) {
    ++level;
  }
  return level;
}

TEST(Kp12, SurviveLevelClosedFormMatchesLoopEverywhere) {
  // Sweep every level's threshold neighborhood (h = (p >> L) - 1, p >> L,
  // (p >> L) + 1) against every max_level clamp, including the max_level
  // boundary where the old loop stopped early: the bit_width closed form
  // min(max_level, 61 - bit_width(h + 1)) must agree exactly -- this pins
  // the rate-2^-L nesting equality the ESTIMATE/SAMPLE subsamples rely on.
  std::vector<std::uint64_t> probes = {0, 1, 2, 3, kFieldPrime - 1,
                                       kFieldPrime - 2};
  for (std::size_t level = 1; level <= 61; ++level) {
    const std::uint64_t t = kFieldPrime >> level;
    if (t > 0) probes.push_back(t - 1);
    probes.push_back(t);
    probes.push_back(t + 1);
  }
  for (const std::size_t max_level : {std::size_t{0}, std::size_t{1},
                                      std::size_t{7}, std::size_t{15},
                                      std::size_t{60}, std::size_t{61},
                                      std::size_t{100}}) {
    for (const std::uint64_t h : probes) {
      if (h >= kFieldPrime) continue;
      const std::size_t closed = std::min<std::uint64_t>(
          max_level, KWiseHash::deepest_level(h));
      EXPECT_EQ(closed, survive_level_loop(h, max_level))
          << "h=" << h << " max_level=" << max_level;
    }
  }
  // And through a real hash on real pair ids, the composition used by the
  // sparsifier fan-out.
  const KWiseHash hash(8, 12345);
  for (std::uint64_t pair = 0; pair < 4096; ++pair) {
    const std::uint64_t h = hash(pair);
    EXPECT_EQ(std::min<std::uint64_t>(15, KWiseHash::deepest_level(h)),
              survive_level_loop(h, 15));
  }
}

// ---- take_result failure modes -------------------------------------------

TEST(Kp12, TakeResultThrowsBeforeFinish) {
  Kp12Sparsifier sparsifier(32, small_config(61));
  EXPECT_THROW((void)sparsifier.take_result(), std::logic_error);
  // Mid-pipeline is still "before finish()".
  const Graph g = erdos_renyi_gnm(32, 100, 67);
  const DynamicStream stream = DynamicStream::from_graph(g, 71);
  sparsifier.absorb(stream.updates());
  EXPECT_THROW((void)sparsifier.take_result(), std::logic_error);
}

TEST(Kp12, TakeResultThrowsWhenTakenTwice) {
  const Graph g = erdos_renyi_gnm(32, 100, 73);
  const DynamicStream stream = DynamicStream::from_graph(g, 79);
  Kp12Sparsifier sparsifier(32, small_config(83));
  (void)sparsifier.run(stream);
  EXPECT_THROW((void)sparsifier.take_result(), std::logic_error);
}

// ---- SpannerOracle bounded BFS cache --------------------------------------

TEST(Kp12, SpannerOracleCacheStaysBoundedAndExact) {
  const Graph g = erdos_renyi_gnm(64, 200, 89);
  SpannerOracle oracle(g, /*max_cached_sources=*/8);
  // Query far more sources than the cap, revisiting each source several
  // times so evictions interleave with hits.
  for (int round = 0; round < 3; ++round) {
    for (Vertex u = 0; u < g.n(); ++u) {
      const auto truth = bfs_distances(g, u);
      for (Vertex v = 0; v < g.n(); v += 7) {
        const double expect = truth[v] == kUnreachableHops
                                  ? kUnreachableDist
                                  : static_cast<double>(truth[v]);
        EXPECT_EQ(oracle.distance(u, v), expect);
      }
      EXPECT_LE(oracle.cached_sources(), oracle.max_cached_sources());
    }
  }
  EXPECT_LE(oracle.cached_sources(), 8u);
}

// ---- shard-merge edge cases ----------------------------------------------

TEST(Kp12, MergeUninitializedThisWithInitializedOther) {
  // A shard that saw updates folded into a primary that saw none: the
  // primary must build its instances and adopt the shard's state exactly.
  const Graph g = erdos_renyi_gnm(32, 140, 97);
  const DynamicStream stream = DynamicStream::from_graph(g, 101);
  const Kp12Config config = small_config(103);

  Kp12Sparsifier primary(32, config);
  auto shard = primary.clone_empty();
  shard->absorb(stream.updates());
  primary.merge(std::move(*shard));
  primary.advance_pass();
  primary.absorb(stream.updates());
  primary.finish();
  const Kp12Result merged = primary.take_result();

  Kp12Sparsifier sequential(32, config);
  const Kp12Result expect = sequential.run(stream);
  ASSERT_EQ(merged.sparsifier.m(), expect.sparsifier.m());
  for (std::size_t i = 0; i < merged.sparsifier.edges().size(); ++i) {
    EXPECT_EQ(merged.sparsifier.edges()[i].u, expect.sparsifier.edges()[i].u);
    EXPECT_EQ(merged.sparsifier.edges()[i].v, expect.sparsifier.edges()[i].v);
    EXPECT_DOUBLE_EQ(merged.sparsifier.edges()[i].weight,
                     expect.sparsifier.edges()[i].weight);
  }
}

TEST(Kp12, MergeBothUninitializedIsANoOp) {
  const Kp12Config config = small_config(107);
  Kp12Sparsifier a(32, config);
  auto b = a.clone_empty();
  a.merge(std::move(*b));  // nothing to fold, nothing to throw
  a.advance_pass();
  a.finish();
  const Kp12Result result = a.take_result();
  EXPECT_EQ(result.sparsifier.m(), 0u);
  EXPECT_EQ(result.diagnostics.oracle_instances, 0u);
  EXPECT_EQ(result.diagnostics.sample_instances, 0u);
}

TEST(Kp12, FirstUpdateArrivingInPass2CatchesUpPhases) {
  // Instances built lazily by a pass-2 first touch must catch up through
  // finish_pass1() (ensure_instances under Phase::kPass2), for both the
  // fused and the scalar reference paths -- and the two must agree.
  const Graph g = erdos_renyi_gnm(32, 120, 109);
  const DynamicStream stream = DynamicStream::from_graph(g, 113);
  const Kp12Config config = small_config(127);

  Kp12Sparsifier fused(32, config);
  fused.advance_pass();  // pass 1 ends having seen nothing
  fused.absorb(stream.updates());
  fused.finish();
  const Kp12Result rf = fused.take_result();
  EXPECT_GT(rf.diagnostics.oracle_instances, 0u);

  Kp12Sparsifier scalar(32, config);
  scalar.advance_pass();
  Kp12ScalarReference::absorb(scalar, stream.updates());
  scalar.finish();
  const Kp12Result rs = scalar.take_result();
  ASSERT_EQ(rf.sparsifier.m(), rs.sparsifier.m());
  for (std::size_t i = 0; i < rf.sparsifier.edges().size(); ++i) {
    EXPECT_EQ(rf.sparsifier.edges()[i].u, rs.sparsifier.edges()[i].u);
    EXPECT_EQ(rf.sparsifier.edges()[i].v, rs.sparsifier.edges()[i].v);
    EXPECT_DOUBLE_EQ(rf.sparsifier.edges()[i].weight,
                     rs.sparsifier.edges()[i].weight);
  }
  EXPECT_EQ(rf.diagnostics.q_queries, rs.diagnostics.q_queries);
}

TEST(Kp12, DiagnosticsPopulated) {
  const Graph g = erdos_renyi_gnm(32, 120, 43);
  const DynamicStream stream = DynamicStream::from_graph(g, 47);
  const Kp12Config config = small_config(53);
  Kp12Sparsifier sparsifier(32, config);
  const Kp12Result result = sparsifier.run(stream);
  EXPECT_EQ(result.diagnostics.oracle_instances,
            config.j_copies * (ceil_log2(32) + 1));
  EXPECT_GT(result.diagnostics.sample_instances, 0u);
  EXPECT_GT(result.diagnostics.q_queries, 0u);
  EXPECT_GT(result.nominal_bytes, 0u);
}

}  // namespace
}  // namespace kw
