// StreamEngine ingestion throughput: sequential batched feeding vs the
// concurrent ingest driver at 1/2/4 workers, on a churn workload.
//
// The processor under load is the AGM spanning-forest sketch (Theorem 10):
// a pure linear stage whose per-update cost dominates.  Every threaded row
// is self-checking -- the merged worker-owned clones must decode the
// identical spanning forest as sequential ingestion (exact by sketch
// linearity) -- and the program exits nonzero on any mismatch, so the CI
// run doubles as a correctness gate.
//
// Emits BENCH_stream_engine.json; the committed baselines at the repo root
// (full + quick) are compared by tools/compare_bench.py in CI, normalized
// by the calibration row (bench/harness.h) so runner-speed differences
// cancel.  `--quick` shrinks the workload for CI; `--out PATH` overrides
// the output path.
//
// Scaling expectations: w1 pays the routing + handoff + clone/merge tax
// with no parallelism (expect a modest slowdown vs seq); w2/w4 recover it
// and win once the machine actually has that many hardware threads.  The
// committed baselines record the machine's hardware_concurrency so a
// single-core baseline is not misread as "threading doesn't help".
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "agm/spanning_forest.h"
#include "bench/harness.h"
#include "bench/table.h"
#include "engine/stream_engine.h"
#include "graph/generators.h"
#include "stream/dynamic_stream.h"
#include "util/timer.h"

namespace {

using namespace kw;
using namespace kw::bench;

[[nodiscard]] std::vector<std::tuple<Vertex, Vertex>> forest_edges(
    ForestResult result) {
  std::vector<std::tuple<Vertex, Vertex>> edges;
  for (const auto& e : result.edges) {
    edges.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

[[nodiscard]] Result forest_ingest(
    const std::string& name, const DynamicStream& stream, Vertex n,
    const AgmConfig& config, std::size_t batch_size, std::size_t workers,
    const std::vector<std::tuple<Vertex, Vertex>>& reference) {
  Result r;
  r.name = name;
  r.updates = stream.size();
  r.ok = true;
  r.ms = best_ms([&] {
    SpanningForestProcessor processor(n, config);
    StreamEngine engine(StreamEngineOptions{batch_size, workers});
    engine.attach(processor);
    Timer timer;
    const EngineRunStats stats = engine.run(stream);
    const double ms = timer.millis();
    const auto edges = forest_edges(processor.take_result());
    // Exactness gate: merged worker clones decode the same forest as the
    // sequential reference, every rep, before any number is reported.
    r.ok = r.ok && stats.updates_per_pass == stream.size() &&
           (reference.empty() || edges == reference);
    return ms;
  });
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_stream_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  banner("StreamEngine ingestion: sequential vs concurrent ingest driver",
         "Claim: worker-owned shard clones fed through lock-free SPSC rings "
         "and merged at pass end are EXACT by sketch linearity (every "
         "threaded row re-decodes the sequential forest), and scale with "
         "hardware threads once the per-pass clone+merge cost amortizes.");

  // Quick mode trims CI cost but keeps each timed region ~100ms: much
  // shorter and scheduler noise dominates the regression compare.
  const Vertex n = quick ? 256 : 512;
  const std::size_t churn_per_vertex = quick ? 12 : 32;
  const std::size_t batch = 4096;

  const Graph g = erdos_renyi_gnm(n, 8ULL * n, /*seed=*/7);
  const DynamicStream stream = DynamicStream::with_churn(
      g, churn_per_vertex * static_cast<std::size_t>(n), /*seed=*/11);
  AgmConfig config;
  config.seed = 13;

  // Sequential reference first: its forest anchors every self-check.
  const Result seq = forest_ingest("forest_ingest_seq", stream, n, config,
                                   batch, /*workers=*/1, {});
  SpanningForestProcessor ref_processor(n, config);
  StreamEngine::run_single(ref_processor, stream, batch);
  const auto reference = forest_edges(ref_processor.take_result());

  std::vector<Result> results;
  results.push_back(seq);
  for (const std::size_t workers :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    results.push_back(forest_ingest("forest_ingest_w" +
                                        std::to_string(workers),
                                    stream, n, config, batch, workers,
                                    reference));
  }

  Table table({"measurement", "updates", "ingest ms", "updates/sec",
               "vs seq", "self-check", "verdict"});
  bool all_ok = true;
  const double seq_ms = results.front().ms;
  for (const Result& r : results) {
    all_ok = all_ok && r.ok;
    table.add_row({r.name, fmt_int(r.updates), fmt(r.ms, 1),
                   fmt_int(static_cast<std::size_t>(r.per_sec())),
                   fmt(seq_ms / r.ms, 2), r.ok ? "yes" : "NO",
                   verdict(r.ok)});
  }
  table.print();
  std::printf(
      "\nNotes: churn workload (phantom insert+delete pairs) through the "
      "AGM spanning-forest sketch; wN = concurrent ingest driver with N "
      "worker threads (lo-endpoint routing, %zu-update aggregation "
      "buffers).  w1 isolates the routing+handoff+merge tax; wall-clock "
      "wins at w2/w4 additionally require that many hardware threads (this "
      "machine reports %u).\n",
      batch, std::thread::hardware_concurrency());

  results.push_back(calibration());
  write_json("stream_engine", results, out, quick);
  return all_ok ? 0 : 1;
}
