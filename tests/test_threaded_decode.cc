// Determinism wall for the threaded decode/finish paths introduced with the
// slab-arena refactor: the KP12 terminal-table decode, the TwoPassSpanner
// split finish it rides on, and the AGM Boruvka per-component decode must be
// bit-identical at EVERY lane count (1 / 2 / 7 / hardware) -- threading is an
// execution detail, never a semantic one.  These suites run under TSan in CI
// (the "ThreadedDecode" filter), so they also serve as the race detectors for
// the per-lane accumulator stripes and the disjoint decode slots.
#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "agm/spanning_forest.h"
#include "core/kp12_sparsifier.h"
#include "core/two_pass_spanner.h"
#include "engine/stream_engine.h"
#include "graph/generators.h"
#include "stream/dynamic_stream.h"
#include "util/worker_pool.h"

namespace kw {
namespace {

// ---- KP12: finish() decode across decode_workers --------------------------

[[nodiscard]] Kp12Config decode_config(std::uint64_t seed,
                                       std::size_t decode_workers) {
  Kp12Config c;
  c.k = 2;
  c.epsilon = 0.5;
  c.seed = seed;
  c.j_copies = 3;
  c.z_samples = 4;
  c.ingest_workers = 1;
  c.decode_workers = decode_workers;
  c.spanner.pass1_budget = 4;
  return c;
}

void expect_results_identical(const Kp12Result& a, const Kp12Result& b) {
  ASSERT_EQ(a.sparsifier.m(), b.sparsifier.m());
  for (std::size_t i = 0; i < a.sparsifier.edges().size(); ++i) {
    EXPECT_EQ(a.sparsifier.edges()[i].u, b.sparsifier.edges()[i].u);
    EXPECT_EQ(a.sparsifier.edges()[i].v, b.sparsifier.edges()[i].v);
    EXPECT_DOUBLE_EQ(a.sparsifier.edges()[i].weight,
                     b.sparsifier.edges()[i].weight);
  }
  EXPECT_EQ(a.diagnostics.edges_weighted, b.diagnostics.edges_weighted);
  EXPECT_EQ(a.diagnostics.q_queries, b.diagnostics.q_queries);
  EXPECT_EQ(a.diagnostics.unhealthy_spanners,
            b.diagnostics.unhealthy_spanners);
  EXPECT_EQ(a.nominal_bytes, b.nominal_bytes);
}

[[nodiscard]] Kp12Result run_with_decode_workers(const DynamicStream& stream,
                                                 std::size_t decode_workers) {
  Kp12Sparsifier sparsifier(stream.n(), decode_config(7, decode_workers));
  return sparsifier.run(stream);
}

TEST(Kp12ThreadedDecode, BitIdenticalAcrossDecodeWorkerCounts) {
  const Graph g = erdos_renyi_gnm(40, 180, 3);
  const DynamicStream stream = DynamicStream::with_churn(g, 100, 5);
  const Kp12Result baseline = run_with_decode_workers(stream, 1);
  EXPECT_GT(baseline.sparsifier.m(), 0u);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{7},
                                    std::size_t{0}}) {
    const Kp12Result threaded = run_with_decode_workers(stream, workers);
    expect_results_identical(baseline, threaded);
  }
}

// ---- TwoPassSpanner: split finish == monolithic finish ---------------------

TEST(TwoPassThreadedDecode, SplitFinishMatchesMonolith) {
  const Graph g = erdos_renyi_gnm(48, 220, 11);
  const DynamicStream stream = DynamicStream::with_churn(g, 120, 13);
  TwoPassConfig config;
  config.k = 2;
  config.seed = 17;
  const auto& ups = stream.updates();

  TwoPassSpanner mono(48, config);
  TwoPassSpanner split(48, config);
  for (int pass = 0; pass < 2; ++pass) {
    mono.absorb(ups);
    split.absorb(ups);
    if (pass == 0) {
      mono.advance_pass();
      split.advance_pass();
    }
  }
  mono.finish();
  // Decode the terminals in REVERSE order: the slot fold in
  // complete_finish() must make scheduling order unobservable.
  const std::size_t terminals = split.begin_finish();
  for (std::size_t t = terminals; t-- > 0;) split.decode_terminal(t);
  split.complete_finish();

  const TwoPassResult rm = mono.take_result();
  const TwoPassResult rs = split.take_result();
  ASSERT_EQ(rm.spanner.m(), rs.spanner.m());
  for (std::size_t i = 0; i < rm.spanner.edges().size(); ++i) {
    EXPECT_EQ(rm.spanner.edges()[i].u, rs.spanner.edges()[i].u);
    EXPECT_EQ(rm.spanner.edges()[i].v, rs.spanner.edges()[i].v);
    EXPECT_DOUBLE_EQ(rm.spanner.edges()[i].weight,
                     rs.spanner.edges()[i].weight);
  }
  EXPECT_EQ(rm.diagnostics.pass2_tables_undecodable,
            rs.diagnostics.pass2_tables_undecodable);
  EXPECT_EQ(rm.diagnostics.pass2_neighbors_unrecovered,
            rs.diagnostics.pass2_neighbors_unrecovered);
  EXPECT_EQ(rm.nominal_bytes, rs.nominal_bytes);
  EXPECT_EQ(rm.touched_bytes, rs.touched_bytes);
}

// ---- AGM forest: per-component decode across lane counts -------------------

void expect_forests_identical(const ForestResult& a, const ForestResult& b) {
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].u, b.edges[i].u);
    EXPECT_EQ(a.edges[i].v, b.edges[i].v);
  }
  EXPECT_EQ(a.rounds_used, b.rounds_used);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.decode_failures, b.decode_failures);
  EXPECT_EQ(a.decode_failures_per_round, b.decode_failures_per_round);
}

TEST(ForestThreadedDecode, BitIdenticalAcrossLaneCounts) {
  AgmConfig config;
  config.seed = 23;
  const Graph g = erdos_renyi_gnm(64, 200, 29);
  AgmGraphSketch sketch(64, config);
  std::vector<EdgeUpdate> batch;
  for (const auto& e : g.edges()) batch.push_back({e.u, e.v});
  sketch.absorb(batch);
  std::vector<std::uint32_t> identity(64);
  std::iota(identity.begin(), identity.end(), 0u);

  const ForestResult sequential = agm_spanning_forest(sketch, identity);
  EXPECT_TRUE(sequential.complete);
  for (const std::size_t lanes : {std::size_t{2}, std::size_t{7}}) {
    WorkerPool pool(lanes);
    const ForestResult threaded =
        agm_spanning_forest(sketch, identity, pool, lanes);
    expect_forests_identical(sequential, threaded);
    // A lane cap below the pool width must be just as invisible.
    const ForestResult capped =
        agm_spanning_forest(sketch, identity, pool, 1);
    expect_forests_identical(sequential, capped);
  }
}

// ---- Engine plumbing: StreamEngineOptions::decode_workers ------------------

TEST(EngineThreadedDecode, DecodeWorkersOptionIsTransparent) {
  const Graph g = erdos_renyi_gnm(56, 240, 31);
  const DynamicStream stream = DynamicStream::from_graph(g, 37);
  AgmConfig config;
  config.seed = 41;

  auto run_forest = [&](std::size_t decode_workers) {
    SpanningForestProcessor processor(56, config);
    StreamEngineOptions options;
    options.decode_workers = decode_workers;
    StreamEngine engine(options);
    engine.attach(processor);
    (void)engine.run(stream);
    return processor.take_result();
  };
  const ForestResult baseline = run_forest(1);
  EXPECT_TRUE(baseline.complete);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{7},
                                    std::size_t{0}}) {
    expect_forests_identical(baseline, run_forest(workers));
  }

  // KP12 through the engine with an engine-level decode budget: the result
  // must match the processor-level knob exactly.
  auto run_kp12 = [&](std::size_t engine_workers,
                      std::size_t config_workers) {
    Kp12Sparsifier sparsifier(stream.n(),
                              decode_config(43, config_workers));
    StreamEngineOptions options;
    options.decode_workers = engine_workers;
    StreamEngine engine(options);
    engine.attach(sparsifier);
    (void)engine.run(stream);
    return sparsifier.take_result();
  };
  const Kp12Result kp_baseline = run_kp12(1, 1);
  expect_results_identical(kp_baseline, run_kp12(2, 0));
  expect_results_identical(kp_baseline, run_kp12(1, 7));
}

}  // namespace
}  // namespace kw
