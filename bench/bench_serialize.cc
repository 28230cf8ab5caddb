// Serialization throughput and checkpoint overhead.
//
// Five measurements on the AGM spanning-forest processor over a churn
// workload (n=2048 full / n=512 quick):
//
//   forest_save                serialize the ingested sketch to bytes
//   forest_load                restore those bytes into a fresh processor
//   forest_ingest_plain        engine ingest, checkpointing off
//   forest_ingest_checkpointed same ingest + periodic checkpoints to disk
//   forest_ingest_fault_hooks  the plain engine ingest + one DISARMED
//                              fault::fire() per update -- per-UPDATE
//                              granularity, far denser than the production
//                              per-batch sites, so the compare_bench gate
//                              on this row pins the disabled fast path
//                              (one relaxed load + branch) at zero cost
//
// save/load report BYTES per second (the updates column holds the payload
// size); the two ingest rows share units with bench_stream_engine so the
// checkpointed/plain ratio reads directly as the checkpoint tax.  Self
// checks: the loaded sketch must reserialize bit-identically, and the
// checkpointed run must decode the same forest as the plain one; any
// mismatch exits nonzero, so the CI run doubles as a correctness gate.
//
// Emits BENCH_serialize.json; committed baselines (full + quick) are
// compared by tools/compare_bench.py in CI, normalized by the calibration
// row (bench/harness.h) so runner-speed differences cancel.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "agm/spanning_forest.h"
#include "bench/harness.h"
#include "bench/table.h"
#include "engine/stream_engine.h"
#include "graph/generators.h"
#include "serialize/serialize.h"
#include "stream/dynamic_stream.h"
#include "util/fault_injection.h"
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

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out = "BENCH_serialize.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out = argv[++i];
  }

  banner("Sketch serialization: save/load throughput and checkpoint tax",
         "Claim: the versioned binary format round-trips sketch state "
         "bit-identically at memory-bandwidth-class speed, and periodic "
         "engine checkpoints cost a bounded fraction of plain ingest "
         "(the restored run decodes the identical forest).");

  const Vertex n = quick ? 512 : 2048;
  const std::size_t churn_per_vertex = quick ? 8 : 16;
  const std::size_t batch = 16384;

  const Graph g = erdos_renyi_gnm(n, 8ULL * n, /*seed=*/7);
  const DynamicStream stream = DynamicStream::with_churn(
      g, churn_per_vertex * static_cast<std::size_t>(n), /*seed=*/11);
  AgmConfig config;
  config.seed = 13;

  // Ingest once (absorb only, no finish) to produce the mid-stream state
  // every serialization row exercises -- the state a checkpoint ships.
  std::vector<EdgeUpdate> updates;
  updates.reserve(stream.size());
  stream.replay([&updates](const EdgeUpdate& u) { updates.push_back(u); });
  SpanningForestProcessor ingested(n, config);
  for (std::size_t i = 0; i < updates.size(); i += batch) {
    ingested.absorb({updates.data() + i,
                     std::min(batch, updates.size() - i)});
  }
  // Peek the forest through a serialized copy so `ingested` itself stays
  // unfinished for the save/load rows.
  std::vector<std::tuple<Vertex, Vertex>> reference;
  {
    SpanningForestProcessor probe(n, config);
    ser::load_from_bytes(ser::save_to_bytes(ingested), probe);
    probe.finish();
    reference = forest_edges(probe.take_result());
  }

  std::vector<Result> results;

  // ---- forest_save -------------------------------------------------------
  {
    Result r;
    r.name = "forest_save";
    r.ok = true;
    std::string bytes;
    r.ms = best_ms([&] {
      Timer timer;
      bytes = ser::save_to_bytes(ingested);
      return timer.millis();
    });
    r.updates = bytes.size();
    results.push_back(r);

    // ---- forest_load -----------------------------------------------------
    Result l;
    l.name = "forest_load";
    l.updates = bytes.size();
    l.ok = true;
    l.ms = best_ms([&] {
      SpanningForestProcessor fresh(n, config);
      Timer timer;
      ser::load_from_bytes(bytes, fresh);
      const double ms = timer.millis();
      l.ok = l.ok && ser::save_to_bytes(fresh) == bytes;  // bit identity
      return ms;
    });
    results.push_back(l);
  }

  // ---- forest_ingest_plain (the checkpoint-tax baseline) -----------------
  {
    Result r;
    r.name = "forest_ingest_plain";
    r.updates = stream.size();
    r.ok = true;
    r.ms = best_ms([&] {
      SpanningForestProcessor processor(n, config);
      StreamEngine engine(StreamEngineOptions{batch, /*shards=*/1});
      engine.attach(processor);
      Timer timer;
      (void)engine.run(stream);
      const double ms = timer.millis();
      r.ok = r.ok && forest_edges(processor.take_result()) == reference;
      return ms;
    });
    results.push_back(r);
  }

  // ---- forest_ingest_fault_hooks -----------------------------------------
  {
    Result r;
    r.name = "forest_ingest_fault_hooks";
    r.updates = stream.size();
    r.ok = true;
    r.ms = best_ms([&] {
      SpanningForestProcessor processor(n, config);
      StreamEngine engine(StreamEngineOptions{batch, /*shards=*/1});
      engine.attach(processor);
      Timer timer;
      // The exact plain-ingest code path, plus one disarmed site check per
      // update on top: if the fast path were not free this row would fall
      // measurably behind plain ingest.  fire() must return false --
      // nothing is armed in a bench run.
      for (const EdgeUpdate& u : updates) {
        (void)u;
        if (fault::fire(fault::site::kEngineAbsorbBatch)) r.ok = false;
      }
      (void)engine.run(stream);
      const double ms = timer.millis();
      r.ok = r.ok && forest_edges(processor.take_result()) == reference;
      return ms;
    });
    results.push_back(r);
  }

  // ---- forest_ingest_checkpointed ----------------------------------------
  {
    const std::string ckpt_path = "/tmp/kw_bench_serialize_ckpt.kwsk";
    Result r;
    r.name = "forest_ingest_checkpointed";
    r.updates = stream.size();
    r.ok = true;
    r.ms = best_ms([&] {
      StreamEngineOptions options;
      options.batch_size = batch;
      // ~8 checkpoints over the run: frequent enough to measure, sparse
      // enough to stay a realistic cadence.
      options.checkpoint_every_updates = stream.size() / 8;
      options.checkpoint_path = ckpt_path;
      SpanningForestProcessor processor(n, config);
      StreamEngine engine(options);
      engine.attach(processor);
      Timer timer;
      (void)engine.run(stream);
      const double ms = timer.millis();
      r.ok = r.ok && forest_edges(processor.take_result()) == reference;
      return ms;
    });
    std::remove(ckpt_path.c_str());
    results.push_back(r);
  }

  Table table({"measurement", "units", "count", "ms", "per sec", "vs plain",
               "self-check", "verdict"});
  bool all_ok = true;
  const double plain_ms = results[2].ms;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    all_ok = all_ok && r.ok;
    const bool is_bytes = i < 2;
    table.add_row({r.name, is_bytes ? "bytes" : "updates", fmt_int(r.updates),
                   fmt(r.ms, 2),
                   is_bytes ? fmt(r.per_sec() / (1 << 20), 1) + " MiB/s"
                            : fmt_int(static_cast<std::size_t>(r.per_sec())),
                   is_bytes ? "-" : fmt(plain_ms / r.ms, 2),
                   r.ok ? "yes" : "NO", verdict(r.ok)});
  }
  table.print();
  std::printf(
      "\nNotes: save/load rows move the full n=%u AGM forest sketch "
      "(sparse cell sections where under half the cells are live); the "
      "checkpointed ingest writes ~8 fsync'd write-then-rename checkpoints "
      "to /tmp over the run, so (plain ms / checkpointed ms) is the "
      "checkpoint tax; the fault_hooks row adds one DISARMED "
      "fault-injection site check per update and must stay at plain-ingest "
      "speed.  Self-checks: load reserializes bit-identically, every "
      "ingest decodes the reference forest, and no disarmed site fires.\n",
      n);

  results.push_back(calibration());
  write_json("serialize", results, out, quick);
  return all_ok ? 0 : 1;
}
