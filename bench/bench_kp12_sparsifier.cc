// Experiment E5 (Corollary 2): two-pass spectral sparsifier via the KP12
// reduction -- ingest throughput AND output quality.
//
// Part 1: absorb-only throughput of the fused sparsifier hot path, emitted
// as BENCH_kp12.json:
//   kp12_ingest_fused       batched absorb() -- staged batch, eval_many
//                           membership levels, level-sorted prefix dispatch
//                           into TwoPassSpanner::pass*_ingest_row (churn
//                           stream)
//   kp12_ingest_fused_w1/2  the same workload pinned to 1 / 2 ingest lanes
//   kp12_finish_decode_w1/2 finish(): the terminal kv-table decode at 1 / 2
//                           decode lanes
//   kp12_between_passes     advance_pass(): per-instance forest build +
//                           pass-2 table setup (context, not gated)
//   calibration             the machine-speed anchor (bench/harness.h)
// Bit-identity of the fused path with the per-update reference fan-out is
// pinned by tests/test_kp12_fused.cc (tier-1 and under TSan), not here.
//
// The committed baselines (BENCH_kp12.json, BENCH_kp12.quick.json) seed the
// perf trajectory; tools/compare_bench.py gates regressions in CI.  For
// scale: the pre-fusion per-update pipeline measured 1.9k updates/sec on
// the full workload below (per-(u,r,j) lazy sketches, a fingerprint
// power-table build per touched sketch, per-update survive_level hashing).
//
// Part 2 (--full only): the historical E5 quality table -- spectral
// envelope, cut preservation, SS08 offline anchor at matched sparsity.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "baseline/ss_sparsifier.h"
#include "bench/harness.h"
#include "bench/table.h"
#include "core/kp12_sparsifier.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/spectral_compare.h"
#include "util/timer.h"

namespace {

using namespace kw;
using namespace kw::bench;

constexpr std::size_t kBatch = 16384;

// Feed the stream `passes` of ingest (absorb-only timing; advance_pass is
// measured separately).  `feed_reps` replays per pass lengthen the timed
// region -- legal because the sketches are linear in the update vector.
[[nodiscard]] double ingest_once(Kp12Sparsifier& sparsifier,
                                 const std::vector<EdgeUpdate>& ups,
                                 int feed_reps, double* between_ms) {
  double ms = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    Timer timer;
    for (int rep = 0; rep < feed_reps; ++rep) {
      for (std::size_t i = 0; i < ups.size(); i += kBatch) {
        const std::size_t len = std::min(kBatch, ups.size() - i);
        sparsifier.absorb({ups.data() + i, len});
      }
    }
    ms += timer.millis();
    if (pass == 0) {
      Timer between;
      sparsifier.advance_pass();
      if (between_ms != nullptr) *between_ms += between.millis();
    }
  }
  return ms;
}

void run_ingest(std::vector<Result>& results, bool quick) {
  const Vertex n = quick ? 128 : 192;
  const int feed_reps = quick ? 2 : 4;
  const Graph g = erdos_renyi_gnm(n, 8ULL * n, /*seed=*/7);
  const DynamicStream stream =
      DynamicStream::with_churn(g, 8ULL * n, /*seed=*/11);
  const auto& ups = stream.updates();
  Kp12Config config;
  config.k = 2;
  config.epsilon = 0.5;
  config.seed = 13;
  config.j_copies = 5;
  config.z_samples = 10;

  Result fused;
  fused.name = "kp12_ingest_fused";
  fused.updates = 2 * feed_reps * ups.size();
  Result between;
  between.name = "kp12_between_passes";
  between.updates = ups.size();
  between.ms = std::numeric_limits<double>::infinity();
  fused.ms = best_ms([&] {
    Kp12Sparsifier sparsifier(n, config);
    double between_ms = 0.0;
    const double ms = ingest_once(sparsifier, ups, feed_reps, &between_ms);
    between.ms = std::min(between.ms, between_ms);
    return ms;
  });

  // Worker sweep: the same fused workload pinned to explicit lane counts.
  // Rows are machine-relative context (on a 1-thread box they coincide with
  // the fused row); the determinism wall guarantees identical RESULTS at
  // every lane count, so these time pure scatter overhead/benefit.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    Kp12Config wc = config;
    wc.ingest_workers = workers;
    Result row;
    row.name = "kp12_ingest_fused_w" + std::to_string(workers);
    row.updates = 2 * feed_reps * ups.size();
    row.ms = best_ms([&] {
      Kp12Sparsifier sparsifier(n, wc);
      return ingest_once(sparsifier, ups, feed_reps, nullptr);
    });
    results.push_back(row);
  }

  // Finish-side decode sweep: ingest both passes untimed, then time the
  // terminal kv-table decode (finish()) at explicit decode lane counts.  The
  // decode scatter is bit-identical at every lane count (the ThreadedDecode
  // wall), so these rows time pure decode throughput; w1 is the row the CI
  // compare gates against the committed baseline.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    Kp12Config dc = config;
    dc.ingest_workers = 1;
    dc.decode_workers = workers;
    Result row;
    row.name = "kp12_finish_decode_w" + std::to_string(workers);
    row.updates = ups.size();
    row.ms = best_ms([&] {
      Kp12Sparsifier sparsifier(n, dc);
      (void)ingest_once(sparsifier, ups, 1, nullptr);
      Timer timer;
      sparsifier.finish();
      const double ms = timer.millis();
      (void)sparsifier.take_result();
      return ms;
    });
    results.push_back(row);
  }

  results.push_back(fused);
  results.push_back(between);
}

void run_quality_point(Table& table, const std::string& family, Vertex n,
                       std::uint64_t seed) {
  const Graph g = make_family(family, n, 8ULL * n, seed);
  const DynamicStream stream = DynamicStream::from_graph(g, seed + 1);

  Kp12Config config;
  config.k = 2;
  config.epsilon = 0.5;
  config.seed = seed + 2;
  config.j_copies = 5;
  config.z_samples = 10;
  Kp12Sparsifier sparsifier(g.n(), config);
  Timer timer;
  const Kp12Result result = sparsifier.run(stream);
  const double build_ms = timer.millis();

  const SpectralEnvelope env = spectral_envelope(g, result.sparsifier);
  const CutReport cuts = compare_cuts(g, result.sparsifier, 64, seed + 3);
  const bool connectivity_kept =
      component_count(result.sparsifier) == component_count(g);

  table.add_row({"KP14 2-pass", family, fmt_int(g.n()), fmt_int(g.m()),
                 fmt_int(stream.passes_used()),
                 fmt_int(result.sparsifier.m()), fmt(env.min_eigenvalue, 2),
                 fmt(env.max_eigenvalue, 2), fmt(env.epsilon(), 2),
                 fmt(cuts.max_relative_error, 2),
                 fmt_bytes(result.nominal_bytes), fmt(build_ms, 0),
                 verdict(connectivity_kept && env.comparable &&
                         env.min_eigenvalue > 0.05)});

  // Offline anchor at a matched edge count.
  SsOptions ss;
  ss.epsilon = 0.5;
  ss.dense_resistances = true;
  ss.oversample =
      0.35 * static_cast<double>(result.sparsifier.m()) /
      static_cast<double>(g.m() > 0 ? g.m() : 1);
  Timer ss_timer;
  const Graph ss_h = ss_sparsify(g, ss, seed + 4);
  const double ss_ms = ss_timer.millis();
  const SpectralEnvelope ss_env = spectral_envelope(g, ss_h);
  const CutReport ss_cuts = compare_cuts(g, ss_h, 64, seed + 5);
  table.add_row({"SS08 offline", family, fmt_int(g.n()), fmt_int(g.m()), "-",
                 fmt_int(ss_h.m()), fmt(ss_env.min_eigenvalue, 2),
                 fmt(ss_env.max_eigenvalue, 2), fmt(ss_env.epsilon(), 2),
                 fmt(ss_cuts.max_relative_error, 2), "-", fmt(ss_ms, 0),
                 verdict(ss_env.comparable)});
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool full = false;
  std::string out = "BENCH_kp12.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  banner("E5: KP12 sparsifier -- fused ingest throughput (Corollary 2)",
         "Claim: staging each batch once (eval_many membership levels, "
         "level-sorted prefix dispatch, page-flattened spanner state) makes "
         "ingest and decode fast enough to run every spanner instance of "
         "the fleet inside the same two passes.");

  std::vector<Result> results;
  run_ingest(results, quick);

  Table ingest_table({"measurement", "updates", "ms", "updates/sec"});
  for (const Result& r : results) {
    ingest_table.add_row({r.name, fmt_int(r.updates), fmt(r.ms, 1),
                          fmt_int(static_cast<std::size_t>(r.per_sec()))});
  }
  ingest_table.print();
  std::printf(
      "\nNotes: ingest rows time absorb() only (both passes, %zu-update "
      "batches, churn stream: dedupe + delta aggregation in effect); "
      "kp12_between_passes is the advance_pass() forest/table setup.  The "
      "pre-fusion pipeline (per-sketch lazy maps, a fingerprint table build "
      "per touched sketch) measured ~1.9k updates/sec on this workload.\n",
      kBatch);

  results.push_back(calibration());
  write_json("kp12", results, out, quick);

  if (full) {
    Table table({"algorithm", "family", "n", "m", "passes", "|E_H|",
                 "lambda_min", "lambda_max", "eps_measured", "max cut err",
                 "nominal", "ms", "verdict"});
    std::uint64_t seed = 500;
    for (const std::string family : {"er", "ba"}) {
      for (const Vertex n : {48u, 64u, 96u}) {
        run_quality_point(table, family, n, seed);
        seed += 10;
      }
    }
    table.print();
    std::printf(
        "\nNotes: constants are scaled down (J=5, Z=10 vs the paper's "
        "Theta(log n / eps^2) and Theta(lambda^2 log n / eps^3)); the "
        "envelope is constant-factor rather than (1 +- eps) at this scale, "
        "matching the Z/J reduction.  SS08 rows anchor quality at matched "
        "sparsity.\n");
  }
  return 0;
}
