// Experiment E8 (Theorem 10 [AGM12a]): spanning forest from linear sketches.
//
// Success rate and rounds of Boruvka-over-sketches across graph families
// and sizes; space against the O(n log^3 n) claim; the supernode-collapse
// and edge-subtraction modes the additive spanner relies on; update
// throughput.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "agm/spanning_forest.h"
#include "bench/table.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "stream/dynamic_stream.h"
#include "util/timer.h"

namespace {

using namespace kw;
using namespace kw::bench;

void run_point(Table& table, const std::string& family, Vertex n,
               std::uint64_t seed) {
  constexpr int kTrials = 5;
  int correct = 0;
  std::size_t rounds = 0;
  std::size_t bytes = 0;
  double update_ms = 0.0;
  double solve_ms = 0.0;
  std::size_t m = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Graph g = make_family(family, n, 4ULL * n, seed + trial);
    m = g.m();
    AgmConfig config;
    config.rounds = 12;
    config.sampler_instances = 4;
    config.seed = seed + 100 + trial;
    AgmGraphSketch sketch(g.n(), config);
    const DynamicStream stream =
        DynamicStream::with_churn(g, g.m() / 2, seed + trial);
    // Batched ingest through the fused multi-round group (one staged sweep
    // per batch for all 12 rounds), mirroring how the StreamEngine feeds it.
    std::vector<EdgeUpdate> batch;
    batch.reserve(16384);
    Timer timer;
    stream.replay([&](const EdgeUpdate& u) {
      batch.push_back(u);
      if (batch.size() == 16384) {
        sketch.absorb(batch);
        batch.clear();
      }
    });
    sketch.absorb(batch);
    update_ms += timer.millis();
    bytes = sketch.nominal_bytes();
    Timer solve_timer;
    const ForestResult forest = agm_spanning_forest(sketch);
    solve_ms += solve_timer.millis();
    rounds += forest.rounds_used;
    if (forest.complete &&
        same_partition(g, Graph::from_edges(g.n(), forest.edges))) {
      bool edges_real = true;
      for (const auto& e : forest.edges) {
        if (!g.has_edge(e.u, e.v)) edges_real = false;
      }
      if (edges_real) ++correct;
    }
  }
  const double space_units =
      static_cast<double>(n) *
      std::pow(std::log2(static_cast<double>(n)), 3.0);
  table.add_row(
      {family, fmt_int(n), fmt_int(m), fmt_int(static_cast<std::size_t>(correct)),
       fmt_int(kTrials), fmt(static_cast<double>(rounds) / kTrials, 1),
       fmt_bytes(bytes), fmt(static_cast<double>(bytes) / space_units, 0),
       fmt(update_ms / kTrials, 0), fmt(solve_ms / kTrials, 0),
       verdict(correct == kTrials)});
}

void run_supernode_mode(Table& table, Vertex n, std::uint64_t seed) {
  // Clusters of 4 collapsed into supernodes; forest must connect clusters
  // after subtracting one quarter of the edges explicitly (linearity).
  const Graph g = erdos_renyi_gnm(n, 6ULL * n, seed);
  AgmConfig config;
  config.seed = seed + 1;
  AgmGraphSketch sketch(n, config);
  std::vector<EdgeUpdate> inserts;
  for (const auto& e : g.edges()) inserts.push_back({e.u, e.v});
  sketch.absorb(inserts);
  Graph remaining(n);
  std::vector<BankPairUpdate> removed;
  for (std::size_t i = 0; i < g.m(); ++i) {
    const auto& e = g.edges()[i];
    if (i % 4 == 0) {
      removed.push_back({std::min(e.u, e.v), std::max(e.u, e.v),
                         pair_id(e.u, e.v, n), -1});
    } else {
      remaining.add_edge(e.u, e.v);
    }
  }
  sketch.ingest_staged(removed);
  std::vector<std::uint32_t> partition(n);
  for (Vertex v = 0; v < n; ++v) partition[v] = v / 4;
  const ForestResult forest = agm_spanning_forest(sketch, partition);
  // Validate against the contracted remaining graph.
  UnionFind truth(n);
  for (Vertex v = 0; v < n; ++v) truth.unite(v, (v / 4) * 4);
  for (const auto& e : remaining.edges()) truth.unite(e.u, e.v);
  UnionFind ours(n);
  for (Vertex v = 0; v < n; ++v) ours.unite(v, (v / 4) * 4);
  bool ok = forest.complete;
  for (const auto& e : forest.edges) {
    if (!remaining.has_edge(e.u, e.v)) ok = false;  // subtracted edge leaked
    ours.unite(e.u, e.v);
  }
  ok = ok && ours.component_count() == truth.component_count();
  table.add_row({"collapse+subtract", fmt_int(n), fmt_int(remaining.m()),
                 ok ? "1" : "0", "1",
                 fmt(static_cast<double>(forest.rounds_used), 1), "-", "-",
                 "-", "-", verdict(ok)});
}

}  // namespace

int main() {
  banner("E8: AGM spanning forest sketch (Theorem 10, [AGM12a])",
         "Claim: single-pass linear sketch of O(n log^3 n) space returns a "
         "spanning forest whp; supports supernode collapse and edge "
         "subtraction by linearity (used by Algorithm 3).");
  Table table({"family", "n", "m", "correct", "trials", "avg rounds",
               "space", "bytes/(n log^3 n)", "update ms", "solve ms",
               "verdict"});
  std::uint64_t seed = 900;
  for (const std::string family : {"er", "ba", "grid"}) {
    for (const Vertex n : {256u, 1024u}) {
      run_point(table, family, n, seed);
      seed += 50;
    }
  }
  // Decode-heavy point: Boruvka solve time is dominated by member grouping
  // and stripe accumulation, which now reuse one counting-sorted flat array
  // and one accumulator buffer across rounds (no per-round vector<vector>
  // rebuilds) -- 'solve ms' is the number that change is accountable for.
  run_point(table, "er", 2048, seed);
  run_supernode_mode(table, 256, seed + 50);
  table.print();
  std::printf(
      "\nNotes: streams carry churn = m/2 deletions and are ingested in "
      "16k-update batches through the fused multi-round bank; 'correct' "
      "requires the exact connectivity partition AND every forest edge "
      "present in the final graph.  'solve ms' isolates the decode side "
      "(flat counting-sort member grouping + reused accumulator stripes "
      "across rounds).\n");
  return 0;
}
