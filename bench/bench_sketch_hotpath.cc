// Sketch-bank hot-path throughput: the edge-ingest numbers the fused
// BankGroup refactor is accountable for.
//
// Five measurements, each a self-checking end-to-end ingest, plus the
// calibration row:
//   spanning_forest_ingest       AGM spanning forest via StreamEngine,
//                                batched (churn stream: dedupe/cancellation
//                                in full effect)
//   k_connectivity_ingest        k AGM layers in ONE fused k*rounds group
//   agm_rounds_fused             raw 12-round BankGroup ingest, distinct
//                                pairs (layout/staging fusion isolated)
//   agm_rounds_legacy_per_round  the same updates through 12 independent
//                                one-group BankGroups (the pre-fusion
//                                per-round layout; cells must match
//                                bit-for-bit)
//   bank_ingest_batched          raw one-group ingest_pairs (no engine)
//   calibration                  the machine-speed anchor (bench/harness.h)
//
// Emits BENCH_sketch_hotpath.json (schema: bench/harness.h); the committed
// baseline at the repo root seeds the perf trajectory and
// tools/compare_bench.py warns on regressions against it (CI fails the job
// above its --fail-over bound).  `--quick` shrinks the workload for CI;
// `--out PATH` overrides the output path.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "agm/k_connectivity.h"
#include "agm/spanning_forest.h"
#include "bench/harness.h"
#include "bench/table.h"
#include "engine/stream_engine.h"
#include "graph/generators.h"
#include "sketch/bank_group.h"
#include "stream/dynamic_stream.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace kw;
using namespace kw::bench;

// Engine batch size: the fused BankGroup path amortizes staging, hashing,
// churn cancellation and the vertex-grouped scatter over the batch, so
// bigger absorb() batches are strictly cheaper for these workloads; 64k
// updates covers each bench stream in 1-3 batches, maximizing how many
// insert+delete churn pairs cancel inside one staging pass.
constexpr std::size_t kEngineBatch = 65536;

[[nodiscard]] std::vector<std::tuple<Vertex, Vertex>> forest_edges(
    ForestResult result) {
  std::vector<std::tuple<Vertex, Vertex>> edges;
  for (const auto& e : result.edges) {
    edges.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

// Spanning-forest ingest through the engine (batched), with the sharded
// clone/merge path cross-checked against sequential for identity.
[[nodiscard]] Result spanning_forest_ingest(Vertex n, std::size_t churn) {
  const Graph g = erdos_renyi_gnm(n, 8ULL * n, /*seed=*/7);
  const DynamicStream stream = DynamicStream::with_churn(
      g, churn * static_cast<std::size_t>(n), /*seed=*/11);
  AgmConfig config;
  config.seed = 13;

  Result r;
  r.name = "spanning_forest_ingest";
  r.updates = stream.size();
  std::vector<std::tuple<Vertex, Vertex>> reference;
  r.ms = best_ms([&] {
    SpanningForestProcessor sequential(n, config);
    StreamEngine engine(StreamEngineOptions{kEngineBatch, /*shards=*/1});
    engine.attach(sequential);
    Timer timer;
    (void)engine.run(stream);
    const double ms = timer.millis();
    reference = forest_edges(sequential.take_result());
    return ms;
  });

  SpanningForestProcessor sharded(n, config);
  StreamEngine sharded_engine(StreamEngineOptions{kEngineBatch, /*shards=*/4});
  sharded_engine.attach(sharded);
  (void)sharded_engine.run(stream);
  r.ok = forest_edges(sharded.take_result()) == reference;
  return r;
}

[[nodiscard]] Result k_connectivity_ingest(Vertex n, std::size_t k,
                                           std::size_t churn) {
  const Graph g = erdos_renyi_gnm(n, 6ULL * n, /*seed=*/17);
  const DynamicStream stream = DynamicStream::with_churn(
      g, churn * static_cast<std::size_t>(n), /*seed=*/19);
  AgmConfig config;
  config.seed = 23;

  Result r;
  r.name = "k_connectivity_ingest";
  r.updates = stream.size();
  r.ms = best_ms([&] {
    KConnectivitySketch sketch(n, k, config);
    StreamEngine engine(StreamEngineOptions{kEngineBatch, /*shards=*/1});
    engine.attach(sketch);
    Timer timer;
    (void)engine.run(stream);
    const double ms = timer.millis();
    const auto result = sketch.take_result();
    r.ok = result.complete && result.forests.size() == k;
    return ms;
  });
  return r;
}

// Raw bank throughput on synthetic all-distinct pair updates.
[[nodiscard]] std::vector<BankPairUpdate> synthetic_pairs(Vertex n,
                                                          std::size_t count) {
  Rng rng(29);
  std::vector<BankPairUpdate> updates;
  updates.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    BankPairUpdate u;
    u.lo = static_cast<std::uint32_t>(rng.next_below(n));
    u.hi = static_cast<std::uint32_t>(
        (u.lo + 1 + rng.next_below(n - 1)) % n);
    if (u.lo > u.hi) std::swap(u.lo, u.hi);
    u.coord = pair_id(u.lo, u.hi, n);
    u.delta = 1;
    updates.push_back(u);
  }
  return updates;
}

// A one-group bank over n's pair coordinates.
[[nodiscard]] BankGroupConfig synthetic_config(Vertex n, std::uint64_t seed) {
  BankGroupConfig c;
  c.max_coord = num_pairs(n);
  c.instances = 4;
  c.seeds = {seed};
  return c;
}

// Fused multi-round ingest (ONE BankGroup holding all rounds) vs the
// pre-fusion legacy layout (one independent one-group bank per round, each
// re-staging and re-sweeping the batch) -- the 12-round shape of
// AgmGraphSketch on synthetic all-distinct pairs, so the comparison
// isolates staging/layout fusion rather than churn cancellation.  The
// self-check requires bit-identical cells between the two layouts.
[[nodiscard]] std::vector<std::uint64_t> agm_like_seeds(std::size_t rounds) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t r = 0; r < rounds; ++r) {
    seeds.push_back(derive_seed(37, 0xa6000 + r));
  }
  return seeds;
}

[[nodiscard]] Result agm_rounds_fused(Vertex n, std::size_t rounds,
                                      std::size_t count,
                                      std::vector<OneSparseCell>* out) {
  const auto updates = synthetic_pairs(n, count);
  BankGroupConfig c;
  c.max_coord = num_pairs(n);
  c.instances = 4;
  c.seeds = agm_like_seeds(rounds);
  Result r;
  r.name = "agm_rounds_fused";
  r.updates = count;
  r.ms = best_ms([&] {
    BankGroup group(n, c);
    Timer timer;
    for (std::size_t i = 0; i < updates.size(); i += kEngineBatch) {
      const std::size_t len = std::min(kEngineBatch, updates.size() - i);
      group.ingest_pairs({updates.data() + i, len});
    }
    const double ms = timer.millis();
    out->clear();
    for (std::size_t g = 0; g < rounds; ++g) {
      for (std::size_t v = 0; v < n; ++v) {
        const auto stripe = group.stripe(g, v);
        out->insert(out->end(), stripe.begin(), stripe.end());
      }
    }
    return ms;
  });
  return r;
}

[[nodiscard]] Result agm_rounds_legacy(Vertex n, std::size_t rounds,
                                       std::size_t count,
                                       const std::vector<OneSparseCell>& ref) {
  const auto updates = synthetic_pairs(n, count);
  const auto seeds = agm_like_seeds(rounds);
  Result r;
  r.name = "agm_rounds_legacy_per_round";
  r.updates = count;
  r.ms = best_ms([&] {
    std::vector<BankGroup> banks;
    for (std::size_t g = 0; g < rounds; ++g) {
      banks.emplace_back(n, synthetic_config(n, seeds[g]));
    }
    Timer timer;
    for (std::size_t i = 0; i < updates.size(); i += kEngineBatch) {
      const std::size_t len = std::min(kEngineBatch, updates.size() - i);
      for (auto& bank : banks) {
        bank.ingest_pairs({updates.data() + i, len});
      }
    }
    const double ms = timer.millis();
    // Identity: the fused group and the per-round banks share seeds, so
    // every round's cells must agree exactly.
    r.ok = true;
    std::size_t offset = 0;
    for (std::size_t g = 0; g < rounds; ++g) {
      for (std::size_t v = 0; v < n; ++v) {
        for (const auto& cell : banks[g].stripe(0, v)) {
          const auto& expect = ref[offset++];
          r.ok = r.ok && cell.count == expect.count &&
                 cell.coord_sum == expect.coord_sum &&
                 cell.fp1 == expect.fp1 && cell.fp2 == expect.fp2;
        }
      }
    }
    return ms;
  });
  return r;
}

[[nodiscard]] Result bank_ingest_batched(Vertex n, std::size_t count) {
  const auto updates = synthetic_pairs(n, count);
  Result r;
  r.name = "bank_ingest_batched";
  r.updates = count;
  r.ms = best_ms([&] {
    BankGroup bank(n, synthetic_config(n, 31));
    Timer timer;
    for (std::size_t i = 0; i < updates.size(); i += kEngineBatch) {
      const std::size_t len = std::min(kEngineBatch, updates.size() - i);
      bank.ingest_pairs({updates.data() + i, len});
    }
    return timer.millis();
  });
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_sketch_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  banner("Sketch-bank hot path: edge-ingest throughput",
         "Claim: fusing all Boruvka rounds (and k-connectivity layers) into "
         "one BankGroup -- staging, churn cancellation, coordinate dedupe "
         "and hashing paid once per batch, vertex-grouped scatter -- beats "
         "the per-round bank layout by a wide margin; all fast paths are "
         "exact (cells bit-identical, sharded==sequential).");

  // Quick mode trims CI cost but keeps each timed region ~100ms: much
  // shorter and scheduler noise dominates the regression compare.
  const Vertex n = quick ? 256 : 512;
  const std::size_t churn = quick ? 24 : 32;
  const std::size_t raw_updates = quick ? 400'000 : 1'000'000;

  std::vector<Result> results;
  results.push_back(spanning_forest_ingest(n, churn));
  results.push_back(k_connectivity_ingest(n / 2, /*k=*/3, churn));
  std::vector<OneSparseCell> fused_cells;
  const std::size_t agm_updates = raw_updates / 4;
  results.push_back(agm_rounds_fused(n, /*rounds=*/12, agm_updates,
                                     &fused_cells));
  results.push_back(agm_rounds_legacy(n, /*rounds=*/12, agm_updates,
                                      fused_cells));
  fused_cells.clear();
  fused_cells.shrink_to_fit();
  results.push_back(bank_ingest_batched(n, raw_updates));

  Table table({"measurement", "updates", "ingest ms", "updates/sec",
               "self-check", "verdict"});
  bool all_ok = true;
  for (const Result& r : results) {
    all_ok = all_ok && r.ok;
    table.add_row({r.name, fmt_int(r.updates), fmt(r.ms, 1),
                   fmt_int(static_cast<std::size_t>(r.per_sec())),
                   r.ok ? "yes" : "NO", verdict(r.ok)});
  }
  table.print();
  std::printf(
      "\nNotes: spanning_forest/k_connectivity are engine-driven batched "
      "ingests over churn streams (the ROADMAP throughput metric; batch "
      "coordinate dedupe + net-zero cancellation apply); agm_rounds_fused "
      "vs agm_rounds_legacy_per_round isolates the multi-round fusion win "
      "on all-distinct pairs (bit-identical cells required); "
      "bank_ingest_batched is the raw one-group ingest.\n");

  results.push_back(calibration());
  write_json("sketch_hotpath", results, out, quick);
  return all_ok ? 0 : 1;
}
