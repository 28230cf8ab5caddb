// Golden contract of the PR-5 sparsifier hot path: Kp12Sparsifier::absorb
// (staged batch, eval_many membership levels, level-sorted prefix dispatch
// into TwoPassSpanner::pass*_ingest) must be indistinguishable -- result,
// diagnostics, space accounting -- from the historical per-update fan-out
// (Kp12ScalarReference in tests/reference), mirroring the fused-vs-legacy
// BankGroup contract.
#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/kp12_sparsifier.h"
#include "graph/generators.h"
#include "reference/kp12_scalar_reference.h"
#include "serialize/serialize.h"
#include "stream/dynamic_stream.h"
#include "stream/weight_classes.h"
#include "util/random.h"

namespace kw {
namespace {

[[nodiscard]] Kp12Config fused_config(std::uint64_t seed) {
  Kp12Config c;
  c.k = 2;
  c.epsilon = 0.5;
  c.seed = seed;
  c.j_copies = 4;
  c.z_samples = 6;
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
  EXPECT_EQ(a.diagnostics.oracle_instances, b.diagnostics.oracle_instances);
  EXPECT_EQ(a.diagnostics.sample_instances, b.diagnostics.sample_instances);
  EXPECT_EQ(a.diagnostics.edges_weighted, b.diagnostics.edges_weighted);
  EXPECT_EQ(a.diagnostics.q_queries, b.diagnostics.q_queries);
  EXPECT_EQ(a.diagnostics.unhealthy_spanners,
            b.diagnostics.unhealthy_spanners);
  EXPECT_EQ(a.nominal_bytes, b.nominal_bytes);
}

// Drives both paths over the same two passes (small batches for the fused
// side so batch boundaries and staging reuse get exercised) and requires
// identical results.
void expect_fused_matches_scalar(Vertex n, const DynamicStream& stream,
                                 const Kp12Config& config,
                                 std::size_t batch_size) {
  const auto& ups = stream.updates();
  Kp12Sparsifier fused(n, config);
  Kp12Sparsifier scalar(n, config);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < ups.size(); i += batch_size) {
      const std::size_t len = std::min(batch_size, ups.size() - i);
      fused.absorb({ups.data() + i, len});
    }
    Kp12ScalarReference::absorb(scalar, ups);
    if (pass == 0) {
      fused.advance_pass();
      scalar.advance_pass();
    }
  }
  fused.finish();
  scalar.finish();
  const Kp12Result rf = fused.take_result();
  const Kp12Result rs = scalar.take_result();
  expect_results_identical(rf, rs);
  EXPECT_GT(rf.sparsifier.m(), 0u);
}

TEST(Kp12Fused, MatchesScalarOnInsertOnlyStream) {
  const Graph g = erdos_renyi_gnm(48, 220, 3);
  const DynamicStream stream = DynamicStream::from_graph(g, 5);
  expect_fused_matches_scalar(48, stream, fused_config(7), 64);
}

TEST(Kp12Fused, MatchesScalarOnChurnStream) {
  // Deletions reuse their insertions' pair ids: the staging aggregation
  // cancels them while the scalar path replays them one by one -- state
  // must still match exactly, including the pass-1 touch accounting for
  // net-zero pairs.
  const Graph g = erdos_renyi_gnm(40, 180, 11);
  const DynamicStream stream = DynamicStream::with_churn(g, 120, 13);
  expect_fused_matches_scalar(40, stream, fused_config(17), 96);
}

TEST(Kp12Fused, MatchesScalarOnMultiplicityStream) {
  const Graph g = erdos_renyi_gnm(32, 140, 19);
  const DynamicStream stream =
      DynamicStream::with_multiplicity(g, 3, /*delete_back=*/true, 23);
  expect_fused_matches_scalar(32, stream, fused_config(29), 48);
}

TEST(Kp12Fused, BatchBoundariesDoNotMatter) {
  // One big batch vs many tiny ones: identical (staging is per batch, the
  // sketch state is linear).
  const Graph g = erdos_renyi_gnm(36, 160, 31);
  const DynamicStream stream = DynamicStream::from_graph(g, 37);
  const Kp12Config config = fused_config(41);
  const auto& ups = stream.updates();

  Kp12Sparsifier big(36, config);
  Kp12Sparsifier tiny(36, config);
  for (int pass = 0; pass < 2; ++pass) {
    big.absorb(ups);
    for (std::size_t i = 0; i < ups.size(); i += 7) {
      tiny.absorb({ups.data() + i, std::min<std::size_t>(7, ups.size() - i)});
    }
    if (pass == 0) {
      big.advance_pass();
      tiny.advance_pass();
    }
  }
  big.finish();
  tiny.finish();
  const Kp12Result rb = big.take_result();
  const Kp12Result rt = tiny.take_result();
  expect_results_identical(rb, rt);
}

TEST(Kp12Fused, WeightedPipelineMatchesPerClassScalarRuns) {
  // weighted_kp12_sparsify rides the fused absorb behind the weight-class
  // demux; reconstruct it with per-class scalar runs over split streams and
  // require the same union.
  const Graph g =
      with_geometric_weights(erdos_renyi_gnm(32, 150, 43), 1.0, 8.0, 47);
  const DynamicStream stream = DynamicStream::from_graph(g, 53);
  const Kp12Config config = fused_config(59);
  const double wmin = 1.0;
  const double wmax = 8.0;
  const double eps = 1.0;

  const WeightedKp12Result fused =
      weighted_kp12_sparsify(stream, config, wmin, wmax, eps);

  const WeightClassPartition partition(wmin, wmax, eps);
  const auto parts = partition.split_stream(stream);
  Graph expect(stream.n());
  {
    std::map<std::pair<Vertex, Vertex>, double> weights;
    for (std::size_t cls = 0; cls < parts.size(); ++cls) {
      Kp12Config cc = config;
      cc.seed = derive_seed(config.seed, 0x8800 + cls);
      Kp12Sparsifier sparsifier(stream.n(), cc);
      const auto& ups = parts[cls].updates();
      for (int pass = 0; pass < 2; ++pass) {
        Kp12ScalarReference::absorb(sparsifier, ups);
        if (pass == 0) sparsifier.advance_pass();
      }
      sparsifier.finish();
      const Kp12Result r = sparsifier.take_result();
      const double scale = partition.representative(cls) * (1.0 + eps);
      for (const auto& e : r.sparsifier.edges()) {
        weights[{std::min(e.u, e.v), std::max(e.u, e.v)}] +=
            e.weight * scale;
      }
    }
    for (const auto& [key, w] : weights) {
      expect.add_edge(key.first, key.second, w);
    }
  }
  ASSERT_EQ(fused.sparsifier.m(), expect.m());
  for (std::size_t i = 0; i < expect.edges().size(); ++i) {
    EXPECT_EQ(fused.sparsifier.edges()[i].u, expect.edges()[i].u);
    EXPECT_EQ(fused.sparsifier.edges()[i].v, expect.edges()[i].v);
    EXPECT_DOUBLE_EQ(fused.sparsifier.edges()[i].weight,
                     expect.edges()[i].weight);
  }
}

// ---- threaded determinism wall ------------------------------------------
// The worker-pool scatter partitions work into disjoint state islands
// (membership rows during absorb, whole instances during advance/finish),
// so EVERY lane count must produce the same sketch state bit for bit --
// checked at cell level through the canonical serialized form (sorted slot
// ids; byte equality implies cell equality), not just through decoded
// results.

// Drives one fused pipeline at the given lane count and batch size over a
// churn stream, capturing canonical state snapshots after pass 1 and
// mid-pass-2, plus the final result.
struct ThreadedRun {
  std::string pass1_bytes;
  std::string midpass2_bytes;
  Kp12Result result;
};

[[nodiscard]] ThreadedRun run_threaded(Vertex n, const DynamicStream& stream,
                                       std::size_t workers,
                                       std::size_t batch_size) {
  Kp12Config config = fused_config(71);
  config.ingest_workers = workers;
  const auto& ups = stream.updates();
  Kp12Sparsifier sp(n, config);
  ThreadedRun out;
  for (std::size_t i = 0; i < ups.size(); i += batch_size) {
    sp.absorb({ups.data() + i, std::min(batch_size, ups.size() - i)});
  }
  out.pass1_bytes = ser::save_to_bytes(sp);
  sp.advance_pass();
  const std::size_t half = ups.size() / 2;
  for (std::size_t i = 0; i < half; i += batch_size) {
    sp.absorb({ups.data() + i, std::min(batch_size, half - i)});
  }
  out.midpass2_bytes = ser::save_to_bytes(sp);
  for (std::size_t i = half; i < ups.size(); i += batch_size) {
    sp.absorb({ups.data() + i, std::min(batch_size, ups.size() - i)});
  }
  sp.finish();
  out.result = sp.take_result();
  return out;
}

TEST(Kp12Threaded, BitIdenticalAcrossWorkerCountsAndBatchSizes) {
  const Graph g = erdos_renyi_gnm(40, 180, 61);
  const DynamicStream stream = DynamicStream::with_churn(g, 100, 67);
  constexpr std::size_t kWorkerCounts[] = {1, 2, 7, 0};  // 0 = hardware
  constexpr std::size_t kBatchSizes[] = {17, 128};

  // Scalar reference (per-update path, no pool involvement in absorb).
  Kp12Sparsifier scalar(40, fused_config(71));
  for (int pass = 0; pass < 2; ++pass) {
    Kp12ScalarReference::absorb(scalar, stream.updates());
    if (pass == 0) scalar.advance_pass();
  }
  scalar.finish();
  const Kp12Result scalar_result = scalar.take_result();

  for (const std::size_t batch : kBatchSizes) {
    const ThreadedRun ref = run_threaded(40, stream, 1, batch);
    expect_results_identical(ref.result, scalar_result);
    for (const std::size_t workers : kWorkerCounts) {
      if (workers == 1) continue;
      const ThreadedRun run = run_threaded(40, stream, workers, batch);
      EXPECT_EQ(run.pass1_bytes, ref.pass1_bytes)
          << "pass-1 cells diverged (workers=" << workers
          << ", batch=" << batch << ")";
      EXPECT_EQ(run.midpass2_bytes, ref.midpass2_bytes)
          << "mid-pass-2 cells diverged (workers=" << workers
          << ", batch=" << batch << ")";
      expect_results_identical(run.result, ref.result);
    }
  }
}

TEST(Kp12Threaded, MidPass2CheckpointResumeRoundTrip) {
  // Checkpoint a threaded pipeline in the middle of pass 2, restore it into
  // a fresh instance (different lane count on purpose -- lanes are
  // execution-only), feed both the identical remainder, and require
  // identical final state bytes and results.
  const Graph g = erdos_renyi_gnm(36, 160, 73);
  const DynamicStream stream = DynamicStream::with_churn(g, 80, 79);
  const auto& ups = stream.updates();
  Kp12Config config = fused_config(83);
  config.ingest_workers = 2;

  Kp12Sparsifier original(36, config);
  original.absorb(ups);
  original.advance_pass();
  const std::size_t half = ups.size() / 2;
  original.absorb({ups.data(), half});
  const std::string checkpoint = ser::save_to_bytes(original);

  Kp12Config restored_config = config;
  restored_config.ingest_workers = 7;
  Kp12Sparsifier restored(36, restored_config);
  ser::load_from_bytes(checkpoint, restored);

  original.absorb({ups.data() + half, ups.size() - half});
  restored.absorb({ups.data() + half, ups.size() - half});
  EXPECT_EQ(ser::save_to_bytes(original), ser::save_to_bytes(restored));
  original.finish();
  restored.finish();
  expect_results_identical(original.take_result(), restored.take_result());
}

}  // namespace
}  // namespace kw
