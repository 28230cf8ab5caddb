// Experiment E3 (Theorems 3/19): one-pass n/d-additive spanner in ~O(nd)
// space.
//
// Sweep d at several n: measured additive surplus against the n/d scale,
// spanner size, nominal bytes against the ~O(nd) claim, single pass.  The
// offline Aingworth-style +2 spanner (space ~n^{3/2}) anchors the
// comparison.
#include <cmath>
#include <cstdio>

#include "baseline/aingworth_additive.h"
#include "bench/table.h"
#include "core/additive_spanner.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "util/timer.h"

namespace {

using namespace kw;
using namespace kw::bench;

void run_point(Table& table, Vertex n, double d, std::uint64_t seed) {
  const Graph g = erdos_renyi_gnm(n, 10ULL * n, seed);
  const DynamicStream stream =
      DynamicStream::with_churn(g, g.m() / 2, seed + 1);
  AdditiveConfig config;
  config.d = d;
  config.seed = seed + 2;
  AdditiveSpannerSketch sketch(n, config);
  Timer timer;
  const AdditiveResult result = sketch.run(stream);
  const double build_ms = timer.millis();
  const auto report = additive_surplus(g, result.spanner);

  const double surplus_scale = static_cast<double>(n) / d;
  const double nominal_per_nd =
      static_cast<double>(result.nominal_bytes) /
      (static_cast<double>(n) * d);
  const bool ok = report.connected_ok &&
                  static_cast<double>(report.max_surplus) <=
                      4.0 * surplus_scale &&
                  stream.passes_used() == 1;
  table.add_row({"KW one-pass", fmt_int(n), fmt(d, 0), fmt_int(g.m()),
                 fmt_int(stream.passes_used()), fmt_int(result.spanner.m()),
                 fmt_int(report.max_surplus), fmt(surplus_scale, 1),
                 fmt(report.mean_surplus, 3), fmt_bytes(result.nominal_bytes),
                 fmt(nominal_per_nd, 0), fmt(build_ms, 0), verdict(ok)});
}

// Dense regime: average degree 60 so even d=8 must shed edges.
void run_dense(Table& table, Vertex n, std::uint64_t seed) {
  const Graph g = erdos_renyi_gnm(n, 30ULL * n, seed);
  const DynamicStream stream = DynamicStream::from_graph(g, seed + 1);
  for (const double d : {4.0, 8.0}) {
    AdditiveConfig config;
    config.d = d;
    config.threshold_factor = 0.5;
    config.seed = seed + 2 + static_cast<std::uint64_t>(d);
    AdditiveSpannerSketch sketch(n, config);
    // Streams are replayed once per configuration; reset the shared pass
    // counter so the reported pass count stays per-run.
    stream.reset_pass_count();
    const AdditiveResult result = sketch.run(stream);
    const auto report = additive_surplus(g, result.spanner);
    const double surplus_scale = static_cast<double>(n) / d;
    const bool ok = report.connected_ok &&
                    static_cast<double>(report.max_surplus) <=
                        4.0 * surplus_scale;
    table.add_row({"KW one-pass (dense)", fmt_int(n), fmt(d, 0),
                   fmt_int(g.m()), fmt_int(stream.passes_used()),
                   fmt_int(result.spanner.m()), fmt_int(report.max_surplus),
                   fmt(surplus_scale, 1), fmt(report.mean_surplus, 3),
                   fmt_bytes(result.nominal_bytes), "-", "-", verdict(ok)});
  }
}

void run_baseline(Table& table, Vertex n, std::uint64_t seed) {
  const Graph g = erdos_renyi_gnm(n, 10ULL * n, seed);
  Timer timer;
  const Graph h = aingworth_additive_spanner(g, seed + 3);
  const double build_ms = timer.millis();
  const auto report = additive_surplus(g, h);
  table.add_row({"ACIM +2 (offline)", fmt_int(n), "-", fmt_int(g.m()), "-",
                 fmt_int(h.m()), fmt_int(report.max_surplus), "2.0",
                 fmt(report.mean_surplus, 3), "-", "-", fmt(build_ms, 0),
                 verdict(report.max_surplus <= 2)});
}

}  // namespace

int main() {
  banner("E3: one-pass additive spanner (Theorems 3 and 19)",
         "Claim: one pass, additive distortion O(n/d), space ~O(nd).  "
         "Streams include deletions (churn = m/2).");
  Table table({"algorithm", "n", "d", "m", "passes", "|E_H|", "max surplus",
               "n/d", "mean surplus", "nominal", "bytes/(n d)", "ms",
               "verdict"});
  std::uint64_t seed = 100;
  for (const Vertex n : {128u, 256u, 512u}) {
    for (const double d : {2.0, 4.0, 8.0, 16.0}) {
      run_point(table, n, d, seed);
      seed += 10;
    }
    run_baseline(table, n, seed);
    seed += 10;
  }
  run_dense(table, 256, seed);
  table.print();
  std::printf(
      "\nNotes: space = Theta(n d log n) neighborhood sketches + Theta(n "
      "polylog) fixed overhead (AGM + degree sketches), so bytes/(n d) "
      "decays toward the overhead as d grows; the d=2 rows show the "
      "compression regime.  Surplus verdict: max surplus <= 4 n/d.\n");
  return 0;
}
