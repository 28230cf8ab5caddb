// Cross-cutting property suite: LINEARITY, the paper's central structural
// property ("it will be very useful for our application that the sketches
// are linear").
//
// For every sketch type: sketch(S1 || S2) - sketch(S1) - sketch(S2) == 0 for
// random update sequences S1, S2, and order of updates never matters.
#include <gtest/gtest.h>

#include <vector>

#include "agm/neighborhood_sketch.h"
#include "agm/spanning_forest.h"
#include "graph/generators.h"
#include "sketch/bank_group.h"
#include "sketch/distinct_elements.h"
#include "sketch/linear_kv_sketch.h"
#include "sketch/sparse_recovery.h"
#include "util/random.h"

namespace kw {
namespace {

struct Update {
  std::uint64_t coord;
  std::int64_t delta;
};

// Random signed updates whose running multiplicities stay nonnegative.
[[nodiscard]] std::vector<Update> random_updates(std::size_t count,
                                                 std::uint64_t max_coord,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Update> updates;
  std::vector<std::uint64_t> live;  // coords with positive multiplicity
  for (std::size_t i = 0; i < count; ++i) {
    if (!live.empty() && rng.next_bernoulli(0.4)) {
      const std::size_t pick = rng.next_below(live.size());
      updates.push_back({live[pick], -1});
      live[pick] = live.back();
      live.pop_back();
    } else {
      const std::uint64_t c = rng.next_below(max_coord);
      updates.push_back({c, +1});
      live.push_back(c);
    }
  }
  return updates;
}

class LinearitySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinearitySeeds, SparseRecoveryIsLinear) {
  const std::uint64_t seed = GetParam();
  SparseRecoveryConfig config;
  config.max_coord = 1 << 16;
  config.budget = 8;
  config.seed = seed;
  const auto s1 = random_updates(200, config.max_coord, seed * 3 + 1);
  const auto s2 = random_updates(150, config.max_coord, seed * 3 + 2);
  SparseRecoverySketch combined(config);
  SparseRecoverySketch a(config);
  SparseRecoverySketch b(config);
  for (const auto& u : s1) {
    combined.update(u.coord, u.delta);
    a.update(u.coord, u.delta);
  }
  for (const auto& u : s2) {
    combined.update(u.coord, u.delta);
    b.update(u.coord, u.delta);
  }
  combined.merge(a, -1);
  combined.merge(b, -1);
  EXPECT_TRUE(combined.is_zero());
}

TEST_P(LinearitySeeds, L0SamplerIsLinear) {
  const std::uint64_t seed = GetParam();
  BankGroupConfig config;  // one vertex, one group: a single-vector sampler
  config.max_coord = 1 << 16;
  config.seeds = {seed};
  const auto s1 = random_updates(200, config.max_coord, seed * 5 + 1);
  const auto s2 = random_updates(120, config.max_coord, seed * 5 + 2);
  BankGroup combined(1, config);
  BankGroup a(1, config);
  BankGroup b(1, config);
  for (const auto& u : s1) {
    const BankVertexUpdate bu{0, u.coord, u.delta};
    combined.ingest_updates({&bu, 1});
    a.ingest_updates({&bu, 1});
  }
  for (const auto& u : s2) {
    const BankVertexUpdate bu{0, u.coord, u.delta};
    combined.ingest_updates({&bu, 1});
    b.ingest_updates({&bu, 1});
  }
  combined.merge(a, -1);
  combined.merge(b, -1);
  EXPECT_TRUE(combined.is_zero());
}

TEST_P(LinearitySeeds, DistinctElementsIsLinear) {
  const std::uint64_t seed = GetParam();
  DistinctElementsConfig config;
  config.max_coord = 1 << 16;
  config.epsilon = 0.3;
  config.seed = seed;
  const auto s1 = random_updates(300, config.max_coord, seed * 7 + 1);
  const auto s2 = random_updates(200, config.max_coord, seed * 7 + 2);
  DistinctElementsSketch combined(config);
  DistinctElementsSketch a(config);
  DistinctElementsSketch b(config);
  for (const auto& u : s1) {
    combined.update(u.coord, u.delta);
    a.update(u.coord, u.delta);
  }
  for (const auto& u : s2) {
    combined.update(u.coord, u.delta);
    b.update(u.coord, u.delta);
  }
  combined.merge(a, -1);
  combined.merge(b, -1);
  EXPECT_DOUBLE_EQ(combined.estimate(), 0.0);
}

TEST_P(LinearitySeeds, KvSketchIsLinear) {
  const std::uint64_t seed = GetParam();
  LinearKvConfig config;
  config.max_key = 1 << 12;
  config.max_payload_coord = 1 << 12;
  config.capacity = 32;
  config.seed = seed;
  // One level (MultipassSpanner's table) and several (a two-pass H^u_j
  // row), with updates spread over the level prefixes.
  for (const std::size_t levels : {std::size_t{1}, std::size_t{4}}) {
    Rng rng(seed * 11 + 3);
    KvTableBank combined(config, levels);
    KvTableBank a(config, levels);
    KvTableBank b(config, levels);
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t key = rng.next_below(1 << 12);
      const std::uint64_t payload = rng.next_below(1 << 12);
      const std::int64_t delta = rng.next_bernoulli(0.5) ? 1 : -1;
      const std::size_t jmax = static_cast<std::size_t>(i) % levels;
      combined.update(key, delta, payload, delta, jmax);
      (i % 2 == 0 ? a : b).update(key, delta, payload, delta, jmax);
    }
    combined.merge(a, -1);
    combined.merge(b, -1);
    EXPECT_TRUE(combined.is_zero()) << levels << " levels";
  }
}

TEST_P(LinearitySeeds, AgmSketchIsLinear) {
  const std::uint64_t seed = GetParam();
  const Vertex n = 40;
  AgmConfig config;
  config.rounds = 6;
  config.seed = seed;
  const Graph g = erdos_renyi_gnm(n, 200, seed);
  AgmGraphSketch combined(n, config);
  AgmGraphSketch a(n, config);
  AgmGraphSketch b(n, config);
  std::vector<EdgeUpdate> all, halves[2];
  for (std::size_t i = 0; i < g.m(); ++i) {
    const auto& e = g.edges()[i];
    all.push_back({e.u, e.v});
    halves[i % 2].push_back({e.u, e.v});
  }
  combined.absorb(all);
  a.absorb(halves[0]);
  b.absorb(halves[1]);
  combined.merge(a, -1);
  combined.merge(b, -1);
  // The difference sketch represents the empty graph.
  const ForestResult forest = agm_spanning_forest(combined);
  EXPECT_TRUE(forest.complete);
  EXPECT_TRUE(forest.edges.empty());
}

TEST_P(LinearitySeeds, UpdateOrderIrrelevant) {
  // Same multiset of updates in two different orders -> identical decode.
  const std::uint64_t seed = GetParam();
  SparseRecoveryConfig config;
  config.max_coord = 1 << 16;
  config.budget = 8;
  config.seed = seed;
  auto updates = random_updates(60, config.max_coord, seed * 13 + 1);
  SparseRecoverySketch forward(config);
  SparseRecoverySketch backward(config);
  for (const auto& u : updates) forward.update(u.coord, u.delta);
  for (auto it = updates.rbegin(); it != updates.rend(); ++it) {
    backward.update(it->coord, it->delta);
  }
  backward.merge(forward, -1);
  EXPECT_TRUE(backward.is_zero());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearitySeeds,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace kw
