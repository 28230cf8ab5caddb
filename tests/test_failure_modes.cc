// Failure injection and "decode never lies" guarantees.
//
// The Section 2 convention -- "we always know if a SKETCH_B(x) can be
// decoded" -- makes failure *detection* part of the contract.  These tests
// drive every decoder through overload, adversarial cancellation patterns,
// and heavy churn, asserting that any reported answer is exactly right.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/additive_spanner.h"
#include "core/two_pass_spanner.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "sketch/bank_group.h"
#include "sketch/linear_kv_sketch.h"
#include "sketch/sparse_recovery.h"
#include "util/random.h"

namespace kw {
namespace {

TEST(FailureModes, SparseRecoveryNeverLiesUnderChurn) {
  // 50 rounds of random mixed workloads at 0.5x..6x budget; every
  // successful decode must equal the reference map exactly.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    SparseRecoveryConfig config;
    config.max_coord = 1 << 20;
    config.budget = 8;
    config.seed = 1000 + seed;
    SparseRecoverySketch sketch(config);
    std::map<std::uint64_t, std::int64_t> reference;
    Rng rng(seed);
    const std::size_t items = 4 + rng.next_below(48);
    for (std::size_t i = 0; i < items; ++i) {
      const std::uint64_t c = rng.next_below(1 << 20);
      const std::int64_t d =
          rng.next_bernoulli(0.3) ? -1 : 1 + static_cast<std::int64_t>(
                                               rng.next_below(3));
      sketch.update(c, d);
      reference[c] += d;
      if (reference[c] == 0) reference.erase(c);
    }
    const auto decoded = sketch.decode();
    if (!decoded.has_value()) continue;  // detected failure: allowed
    ASSERT_EQ(decoded->size(), reference.size()) << "seed " << seed;
    for (const auto& rec : *decoded) {
      const auto it = reference.find(rec.coord);
      ASSERT_NE(it, reference.end()) << "seed " << seed;
      EXPECT_EQ(it->second, rec.value) << "seed " << seed;
    }
  }
}

TEST(FailureModes, L0SamplerNeverReturnsDeadCoordinate) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    BankGroupConfig config;  // one vertex, one group: a single sampler
    config.max_coord = 4096;
    config.seeds = {2000 + seed};
    BankGroup sampler(1, config);
    std::set<std::uint64_t> live;
    std::vector<BankVertexUpdate> updates;
    Rng rng(seed);
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t c = rng.next_below(4096);
      if (live.contains(c)) {
        updates.push_back({0, c, -1});
        live.erase(c);
      } else {
        updates.push_back({0, c, +1});
        live.insert(c);
      }
    }
    sampler.ingest_updates(updates);
    const auto rec = sampler.decode(0, 0);
    if (!rec.has_value()) continue;
    EXPECT_TRUE(live.contains(rec->coord))
        << "sampler returned a fully-deleted coordinate (seed " << seed
        << ")";
  }
}

TEST(FailureModes, KvOverloadReportsFailureNotGarbage) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    LinearKvConfig config;
    config.max_key = 1 << 16;
    config.max_payload_coord = 1 << 16;
    config.capacity = 8;
    config.seed = 3000 + seed;
    Rng rng(seed);
    std::set<std::uint64_t> keys;
    // 2x..20x overload.
    const std::size_t count = 16 + rng.next_below(145);
    while (keys.size() < count) keys.insert(rng.next_below(1 << 16));
    // One level (MultipassSpanner's table) and several (a two-pass H^u_j
    // row, keys spread over the level prefixes): level 0 holds every key.
    for (const std::size_t levels : {std::size_t{1}, std::size_t{4}}) {
      KvTableBank bank(config, levels);
      for (const auto k : keys) bank.update(k, 1, k % 512, 1, k % levels);
      std::optional<std::vector<KvEntry>> decoded;
      (void)bank.decode_levels(
          [&](std::size_t j, const std::optional<std::vector<KvEntry>>& got) {
            if (j == 0) decoded = got;
          });
      if (!decoded.has_value()) continue;  // detected: fine
      // If it *did* decode (possible near 2x), it must be exactly right.
      ASSERT_EQ(decoded->size(), keys.size());
      for (const auto& entry : *decoded) {
        EXPECT_TRUE(keys.contains(entry.key));
        EXPECT_EQ(entry.key_count, 1);
      }
    }
  }
}

TEST(FailureModes, TwoPassSpannerSurvivesFullCancellation) {
  // Stream that inserts a graph and deletes every edge: the spanner of the
  // empty graph must be empty, with no decode crashes.
  const Graph g = erdos_renyi_gnm(48, 200, 7);
  DynamicStream stream(48);
  for (const auto& e : g.edges()) stream.push({e.u, e.v, +1, 1.0});
  for (const auto& e : g.edges()) stream.push({e.u, e.v, -1, 1.0});
  TwoPassConfig config;
  config.k = 2;
  config.seed = 11;
  TwoPassSpanner spanner(48, config);
  const TwoPassResult result = spanner.run(stream);
  EXPECT_EQ(result.spanner.m(), 0u);
}

TEST(FailureModes, AdditiveSpannerSurvivesFullCancellation) {
  const Graph g = erdos_renyi_gnm(48, 200, 13);
  DynamicStream stream(48);
  for (const auto& e : g.edges()) stream.push({e.u, e.v, +1, 1.0});
  for (const auto& e : g.edges()) stream.push({e.u, e.v, -1, 1.0});
  AdditiveConfig config;
  config.d = 4;
  config.seed = 17;
  AdditiveSpannerSketch sketch(48, config);
  const AdditiveResult result = sketch.run(stream);
  EXPECT_EQ(result.spanner.m(), 0u);
}

TEST(FailureModes, TwoPassSpannerOnSingleEdge) {
  DynamicStream stream(8);
  stream.push({3, 5, +1, 1.0});
  TwoPassConfig config;
  config.k = 3;
  config.seed = 19;
  TwoPassSpanner spanner(8, config);
  const TwoPassResult result = spanner.run(stream);
  ASSERT_EQ(result.spanner.m(), 1u);
  EXPECT_TRUE(result.spanner.has_edge(3, 5));
}

TEST(FailureModes, SpannerToleratesRepeatedInsertDeleteOfSameEdge) {
  DynamicStream stream(6);
  for (int round = 0; round < 10; ++round) {
    stream.push({0, 1, +1, 1.0});
    stream.push({0, 1, -1, 1.0});
  }
  stream.push({0, 1, +1, 1.0});  // net multiplicity 1
  stream.push({2, 3, +1, 1.0});
  TwoPassConfig config;
  config.k = 2;
  config.seed = 23;
  TwoPassSpanner spanner(6, config);
  const TwoPassResult result = spanner.run(stream);
  EXPECT_EQ(result.spanner.m(), 2u);
  EXPECT_TRUE(result.spanner.has_edge(0, 1));
  EXPECT_TRUE(result.spanner.has_edge(2, 3));
}

TEST(FailureModes, HighMultiplicityEdges) {
  // Multiplicity up to 50 on every edge; decode values are multiplicities
  // and must not confuse the spanner.
  const Graph g = cycle_graph(16);
  DynamicStream stream(16);
  for (const auto& e : g.edges()) {
    for (int i = 0; i < 50; ++i) stream.push({e.u, e.v, +1, 1.0});
  }
  TwoPassConfig config;
  config.k = 2;
  config.seed = 29;
  TwoPassSpanner spanner(16, config);
  const TwoPassResult result = spanner.run(stream);
  const auto report = multiplicative_stretch(g, result.spanner, false);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(report.max_stretch, 4.0 + 1e-9);
}

TEST(FailureModes, TinyGraphs) {
  // n = 2: the smallest legal instance everywhere.
  DynamicStream stream(2);
  stream.push({0, 1, +1, 1.0});
  TwoPassConfig config;
  config.k = 2;
  config.seed = 31;
  TwoPassSpanner spanner(2, config);
  const TwoPassResult result = spanner.run(stream);
  EXPECT_TRUE(result.spanner.has_edge(0, 1));

  AdditiveConfig ac;
  ac.d = 1;
  ac.seed = 37;
  AdditiveSpannerSketch additive(2, ac);
  stream.reset_pass_count();
  const AdditiveResult ar = additive.run(stream);
  EXPECT_TRUE(ar.spanner.has_edge(0, 1));
}

}  // namespace
}  // namespace kw
