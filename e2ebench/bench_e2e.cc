// End-to-end benchmark program: a dynamic stream goes in through
// StreamEngine::run, results come out through take_result(), and the run
// reports what a user of the library sees -- wall time, ingest throughput,
// time to result, set-up time, peak memory, and output size -- for ONE
// workload per process.
//
//   bench_e2e --workload NAME --seed S [--seconds T] [--trace FILE]
//
// The load is a closed loop with one caller: the engine pulls the next batch
// only after the previous absorb() returns (a batch job over a stream), so
// throughput is reported at a stated input size.  A run is one untimed
// warm-up rep, then timed reps -- each through freshly constructed
// processors and a fresh StreamEngine -- until T seconds have passed (at
// least kMinReps).  Timings are medians over the reps, with quartiles and
// the rep count.
//
// The workload seed drives graph and stream generation only; sketch seeds
// are fixed configuration below, so the generator never sees the sketch
// randomness (the oblivious-adversary assumption behind every guarantee
// here).  Correctness checks run outside the timed region on the warm-up
// rep's output; every timed rep must reproduce its output digest exactly.
//
// --trace FILE alternates untraced and traced reps.  Traced reps wrap every
// attached processor in a TracedProcessor and the source in a TracedSource
// (trace.h); the per-layer numbers come from those spans, and the untraced
// reps of the same process give trace.overhead_frac.  FILE receives the
// per-processor breakdown and every span.
//
// The last stdout line is one JSON object: workload, correctness, unit
// counts, and every metric with its unit, median, quartiles and n.
#include <malloc.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "agm/k_connectivity.h"
#include "agm/spanning_forest.h"
#include "core/kp12_sparsifier.h"
#include "core/two_pass_spanner.h"
#include "engine/stream_engine.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "harness.h"
#include "stream/dynamic_stream.h"
#include "trace.h"
#include "util/random.h"

namespace {

using namespace kw;
using namespace kw::e2e;

// ---- fixed configuration ---------------------------------------------------

// Sketch seeds: configuration, never derived from the workload seed.
constexpr std::uint64_t kForestSeed = 13;
constexpr std::uint64_t kKconnSeed = 17;
constexpr std::uint64_t kSpannerSeed = 19;
constexpr std::uint64_t kKp12Seed = 23;

constexpr std::size_t kMinReps = 5;
constexpr std::size_t kMaxReps = 400;

enum class Family {
  kErdosRenyi,   // G(n, m) with m = degree * n
  kCommunities,  // `parts` disjoint Barabasi-Albert graphs, ids shuffled
};

struct Spec {
  const char* name;
  Family family;
  Vertex n;
  std::uint32_t degree;  // ER: m = degree * n; BA: edges per new vertex
  std::uint32_t parts;   // kCommunities: number of BA graphs of n / parts
  std::size_t churn_per_vertex;  // phantom insert+delete pairs per vertex
  bool forest;
  bool kconn;        // k = 2
  unsigned spanner;  // TwoPassSpanner k; 0 = not attached
  bool kp12;
  std::size_t shards;  // > 1: ConcurrentIngestDriver with this many workers
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Spec kSpecs[] = {
    {"forest_churn", Family::kErdosRenyi, 4096, 8, 1, 32, true, false, 0,
     false, 1},
    {"spanner_skewed", Family::kCommunities, 4096, 4, 4, 2, false, false, 3,
     false, 1},
    {"kp12_sparsify", Family::kErdosRenyi, 128, 8, 1, 8, false, false, 0, true,
     1},
    {"fanout_seq", Family::kErdosRenyi, 1024, 8, 1, 8, true, true, 2, false,
     1},
    {"fanout_sharded", Family::kErdosRenyi, 1024, 8, 1, 8, true, true, 2,
     false, 2},
};

[[nodiscard]] const Spec* find_spec(std::string_view name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

// ---- inputs ----------------------------------------------------------------

struct Inputs {
  Graph graph;  // the stream's final graph (ground truth for the checks)
  DynamicStream stream;
};

// Skewed degrees in several communities.  The decode cost of one spanner
// depends on where the few largest hubs fall in its cluster hierarchy;
// several communities average that over several hub sets, so the cost
// varies less from seed to seed.  The generator gives each community's
// earliest -- highest-degree -- vertices the lowest ids, and the sketch
// seeds are fixed, so ids are shuffled per seed as well.
[[nodiscard]] Graph communities(const Spec& spec, std::uint64_t seed) {
  const Vertex size = spec.n / spec.parts;
  std::vector<Vertex> label(spec.n);
  for (Vertex v = 0; v < spec.n; ++v) label[v] = v;
  Rng rng(derive_seed(seed, 3));
  for (Vertex v = spec.n - 1; v > 0; --v) {
    std::swap(label[v], label[rng.next_below(v + 1)]);
  }
  std::vector<Edge> edges;
  for (std::uint32_t c = 0; c < spec.parts; ++c) {
    const Graph part =
        barabasi_albert_graph(size, spec.degree, derive_seed(seed, 10 + c));
    for (const Edge& e : part.edges()) {
      edges.push_back({label[c * size + e.u], label[c * size + e.v], e.weight});
    }
  }
  return Graph::from_edges(spec.n, edges);
}

[[nodiscard]] Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  Graph g = spec.family == Family::kErdosRenyi
                ? erdos_renyi_gnm(spec.n,
                                  std::uint64_t{spec.degree} * spec.n,
                                  derive_seed(seed, 1))
                : communities(spec, seed);
  DynamicStream stream = DynamicStream::with_churn(
      g, spec.churn_per_vertex * spec.n, derive_seed(seed, 2));
  return {std::move(g), std::move(stream)};
}

// ---- one rep's processors and results --------------------------------------

struct Results {
  std::optional<ForestResult> forest;
  std::optional<KConnectivityResult> kconn;
  std::optional<TwoPassResult> spanner;
  std::optional<Kp12Result> kp12;
};

class Job {
 public:
  explicit Job(const Spec& spec) {
    if (spec.forest) {
      AgmConfig c;
      c.seed = kForestSeed;
      forest_ = std::make_unique<SpanningForestProcessor>(spec.n, c);
    }
    if (spec.kconn) {
      AgmConfig c;
      c.seed = kKconnSeed;
      kconn_ = std::make_unique<KConnectivitySketch>(spec.n, 2, c);
    }
    if (spec.spanner > 0) {
      TwoPassConfig c;
      c.k = spec.spanner;
      c.seed = kSpannerSeed;
      spanner_ = std::make_unique<TwoPassSpanner>(spec.n, c);
    }
    if (spec.kp12) {
      Kp12Config c;
      c.k = 2;
      c.epsilon = 0.5;
      c.seed = kKp12Seed;
      c.j_copies = 5;
      c.z_samples = 10;
      c.ingest_workers = 1;
      c.decode_workers = 1;
      kp12_ = std::make_unique<Kp12Sparsifier>(spec.n, c);
    }
  }

  // (layer name, processor), in attach order.  Layer names are the repo's
  // module names.
  [[nodiscard]] std::vector<std::pair<std::string, StreamProcessor*>>
  processors() const {
    std::vector<std::pair<std::string, StreamProcessor*>> out;
    if (forest_) out.emplace_back("agm.forest", forest_.get());
    if (kconn_) out.emplace_back("agm.kconn", kconn_.get());
    if (spanner_) out.emplace_back("core.spanner", spanner_.get());
    if (kp12_) out.emplace_back("core.kp12", kp12_.get());
    return out;
  }

  [[nodiscard]] Results take() {
    Results r;
    if (forest_) r.forest = forest_->take_result();
    if (kconn_) r.kconn = kconn_->take_result();
    if (spanner_) r.spanner = spanner_->take_result();
    if (kp12_) r.kp12 = kp12_->take_result();
    return r;
  }

  // Valid after take(): nominal sketch footprint per layer.
  [[nodiscard]] std::size_t forest_nominal_bytes() const {
    return forest_->sketch().nominal_bytes();
  }
  [[nodiscard]] std::size_t kconn_nominal_bytes() const {
    return kconn_->nominal_bytes();
  }

 private:
  std::unique_ptr<SpanningForestProcessor> forest_;
  std::unique_ptr<KConnectivitySketch> kconn_;
  std::unique_ptr<TwoPassSpanner> spanner_;
  std::unique_ptr<Kp12Sparsifier> kp12_;
};

// What the benchmark keeps of one processor's result.
struct Output {
  std::string layer;
  std::uint64_t digest = 0;
  std::size_t edges = 0;
  std::size_t units = 1;           // KP12: one per spanner instance
  std::size_t degraded_units = 0;  // health().degraded / unhealthy instances
  std::size_t decode_failures = 0;
  double nominal_mb = 0.0;
  double touched_mb = 0.0;  // core.spanner only
};

class Digest {
 public:
  void add(std::uint64_t x) { h_ = splitmix64(h_ ^ x); }
  void add_edge(const Edge& e) {
    add((std::uint64_t{e.u} << 32) | e.v);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &e.weight, sizeof(bits));
    add(bits);
  }
  void add_edges(const std::vector<Edge>& edges) {
    add(edges.size());
    for (const Edge& e : edges) add_edge(e);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x6a09e667f3bcc909ULL;
};

constexpr double kMiB = 1024.0 * 1024.0;

[[nodiscard]] std::vector<Output> summarize_outputs(const Job& job,
                                                    const Results& r) {
  std::vector<Output> out;
  for (const auto& [layer, p] : job.processors()) {
    Output o;
    o.layer = layer;
    const ProcessorHealth h = p->health();
    o.decode_failures = h.total_failures();
    o.degraded_units = h.degraded ? 1 : 0;
    Digest d;
    if (layer == "agm.forest") {
      d.add_edges(r.forest->edges);
      d.add(r.forest->complete);
      o.edges = r.forest->edges.size();
      o.nominal_mb = static_cast<double>(job.forest_nominal_bytes()) / kMiB;
    } else if (layer == "agm.kconn") {
      for (const auto& f : r.kconn->forests) {
        d.add_edges(f);
        o.edges += f.size();
      }
      d.add(r.kconn->complete);
      o.nominal_mb = static_cast<double>(job.kconn_nominal_bytes()) / kMiB;
    } else if (layer == "core.spanner") {
      d.add_edges(r.spanner->spanner.edges());
      o.edges = r.spanner->spanner.m();
      o.nominal_mb = static_cast<double>(r.spanner->nominal_bytes) / kMiB;
      o.touched_mb = static_cast<double>(r.spanner->touched_bytes) / kMiB;
    } else {
      const Kp12Diagnostics& diag = r.kp12->diagnostics;
      d.add_edges(r.kp12->sparsifier.edges());
      o.edges = r.kp12->sparsifier.m();
      o.units = diag.oracle_instances + diag.sample_instances;
      o.degraded_units = diag.unhealthy_spanners;
      o.nominal_mb = static_cast<double>(r.kp12->nominal_bytes) / kMiB;
    }
    o.digest = d.value();
    out.push_back(std::move(o));
  }
  return out;
}

// ---- correctness checks (outside timing) -----------------------------------

class EdgeSet {
 public:
  explicit EdgeSet(const Graph& g) : n_(g.n()) {
    ids_.reserve(g.m() * 2);
    for (const Edge& e : g.edges()) ids_.insert(pair_id(e.u, e.v, n_));
  }
  [[nodiscard]] bool contains(const Edge& e) const {
    return e.u != e.v && e.u < n_ && e.v < n_ &&
           ids_.count(pair_id(e.u, e.v, n_)) > 0;
  }

 private:
  Vertex n_;
  std::unordered_set<std::uint64_t> ids_;
};

// "" if `edges` is a subgraph of G and a spanning forest of `g_minus`
// (acyclic with n - components(g_minus) edges); else what is wrong.
[[nodiscard]] std::string check_forest(const EdgeSet& in_g,
                                       const Graph& g_minus,
                                       const std::vector<Edge>& edges) {
  UnionFind uf(g_minus.n());
  for (const Edge& e : edges) {
    if (!in_g.contains(e)) return "forest edge not in the final graph";
    if (!uf.unite(e.u, e.v)) return "forest has a cycle";
  }
  const std::size_t want = g_minus.n() - component_count(g_minus);
  if (edges.size() != want) {
    return "forest has " + std::to_string(edges.size()) + " edges, expected " +
           std::to_string(want);
  }
  return "";
}

// "" if every edge of g has dist_h <= bound; BFS from each vertex stops once
// all of its larger-id G-neighbours are reached or the bound is exceeded.
[[nodiscard]] std::string check_stretch(const Graph& g, const Graph& h,
                                        std::uint32_t bound) {
  const Vertex n = g.n();
  constexpr std::uint32_t kFar = ~std::uint32_t{0};
  std::vector<std::uint32_t> dist(n, kFar);
  std::vector<Vertex> want(n, kInvalidVertex);
  std::vector<Vertex> queue;
  for (Vertex u = 0; u < n; ++u) {
    std::size_t remaining = 0;
    for (const Neighbor& nb : g.neighbors(u)) {
      if (nb.to > u && want[nb.to] != u) {
        want[nb.to] = u;
        ++remaining;
      }
    }
    if (remaining == 0) continue;
    queue.assign(1, u);
    dist[u] = 0;
    for (std::size_t head = 0; head < queue.size() && remaining > 0; ++head) {
      const Vertex x = queue[head];
      if (dist[x] == bound) continue;
      for (const Neighbor& nb : h.neighbors(x)) {
        if (dist[nb.to] != kFar) continue;
        dist[nb.to] = dist[x] + 1;
        queue.push_back(nb.to);
        if (want[nb.to] == u) --remaining;
      }
    }
    for (const Vertex x : queue) dist[x] = kFar;
    if (remaining > 0) {
      return "an edge at vertex " + std::to_string(u) +
             " has spanner distance > " + std::to_string(bound);
    }
  }
  return "";
}

[[nodiscard]] std::string check_subgraph(const EdgeSet& in_g, const Graph& h) {
  for (const Edge& e : h.edges()) {
    if (!in_g.contains(e)) return "output edge not in the final graph";
  }
  return "";
}

// Per-layer check errors ("" = passed) for one rep's results.
[[nodiscard]] std::map<std::string, std::string> check_results(
    const Spec& spec, const Inputs& in, const Results& r) {
  const Graph& g = in.graph;
  const EdgeSet in_g(g);
  std::map<std::string, std::string> errors;
  if (r.forest) errors["agm.forest"] = check_forest(in_g, g, r.forest->edges);
  if (r.kconn) {
    const auto& forests = r.kconn->forests;
    std::string err = forests.size() == 2 ? "" : "expected 2 forests";
    if (err.empty()) err = check_forest(in_g, g, forests[0]);
    if (err.empty()) {
      // F_2 must span G - F_1.
      const EdgeSet in_f1(Graph::from_edges(g.n(), forests[0]));
      std::vector<Edge> rest;
      for (const Edge& e : g.edges()) {
        if (!in_f1.contains(e)) rest.push_back(e);
      }
      err = check_forest(in_g, Graph::from_edges(g.n(), rest), forests[1]);
    }
    errors["agm.kconn"] = err;
  }
  if (r.spanner) {
    const Graph& h = r.spanner->spanner;
    std::string err = check_subgraph(in_g, h);
    if (err.empty()) err = check_stretch(g, h, 1u << spec.spanner);
    errors["core.spanner"] = err;
  }
  if (r.kp12) {
    const Graph& h = r.kp12->sparsifier;
    std::string err = check_subgraph(in_g, h);
    if (err.empty() && !same_partition(g, h)) {
      err = "sparsifier does not preserve connectivity";
    }
    errors["core.kp12"] = err;
  }
  return errors;
}

// ---- one rep ---------------------------------------------------------------

struct Rep {
  std::uint32_t id = 0;
  bool traced = false;
  double setup_s = 0.0;
  double total_s = 0.0;
  double ingest_s = 0.0;  // summed ingest windows
  std::size_t updates_served = 0;
  double latency_s = 0.0;
  double run_begin = 0.0;
  double run_end = 0.0;
  EngineRunStats stats;
  std::vector<TracedSource::PassWindow> windows;
  std::vector<Output> outputs;
  Results results;  // kept for the warm-up rep only
  // Traced reps: serve spans, and each processor layer's spans.
  std::vector<Span> serve_spans;
  std::vector<std::pair<std::string, std::vector<Span>>> layer_spans;
};

[[nodiscard]] Rep run_rep(const Spec& spec, const Inputs& in,
                          std::uint32_t rep_id, bool traced,
                          bool keep_results) {
  Rep rep;
  rep.id = rep_id;
  rep.traced = traced;
  const double t0 = now_s();
  Job job(spec);
  StreamEngineOptions options;  // library default batch size
  options.shards = spec.shards;
  options.decode_workers = 1;
  StreamEngine engine(options);
  ReplaySource replay(in.stream);
  TracedSource source(replay, traced ? &rep.serve_spans : nullptr, rep_id);
  std::vector<std::unique_ptr<TracedProcessor>> wrappers;
  for (const auto& [layer, p] : job.processors()) {
    if (traced) {
      wrappers.push_back(std::make_unique<TracedProcessor>(*p, layer, rep_id));
      engine.attach(*wrappers.back());
    } else {
      engine.attach(*p);
    }
  }
  rep.run_begin = now_s();
  rep.stats = engine.run(source);
  rep.run_end = now_s();
  Results results = job.take();
  const double t_done = now_s();

  rep.setup_s = rep.run_begin - t0;
  rep.total_s = t_done - rep.run_begin;
  rep.windows = source.windows();
  for (const auto& w : rep.windows) {
    rep.ingest_s += w.exhausted - w.begin;
    rep.updates_served += w.updates;
  }
  rep.latency_s = t_done - rep.windows.back().exhausted;
  rep.outputs = summarize_outputs(job, results);
  for (const auto& w : wrappers) {
    rep.layer_spans.emplace_back(w->layer(), w->spans());
  }
  if (keep_results) rep.results = std::move(results);
  return rep;
}

// ---- per-layer analysis of traced reps -------------------------------------

// Named sums over one traced rep's spans: "stream.*", "engine.*", "proc.*"
// (every processor together) and "<layer>.*" (one processor).
using Sums = std::map<std::string, double>;

[[nodiscard]] Sums trace_sums(const Rep& rep) {
  Sums s;
  s["stream.serve_s"] = 0.0;
  for (const Span& span : rep.serve_spans) {
    s["stream.serve_s"] += span.seconds();
  }
  double caller_thread = 0.0;  // processor spans on the engine's thread
  for (const auto& [layer, spans] : rep.layer_spans) {
    for (const char* kind : {"absorb", "advance", "finish", "clone", "merge",
                             "worker_absorb"}) {
      s[layer + "." + kind + "_s"] += 0.0;
    }
    s[layer + ".absorb_calls"] += 0.0;
    for (const Span& span : spans) {
      const double d = span.seconds();
      s[layer + "." + span_suffix(span.kind) + "_s"] += d;
      if (span.kind == SpanKind::kAbsorb) s[layer + ".absorb_calls"] += 1.0;
      if (span.on_worker) {
        s[layer + ".worker_absorb_s"] += d;
      } else {
        caller_thread += d;
      }
    }
    for (const char* key : {"absorb_s", "absorb_calls", "finish_s"}) {
      s[std::string("proc.") + key] += s[layer + "." + key];
    }
    for (const char* key : {"clone_s", "merge_s", "worker_absorb_s"}) {
      s[std::string("engine.") + key] += s[layer + "." + key];
    }
  }
  // Everything from a pass's exhaustion to the next pass's begin_pass (or
  // to run() returning), minus decode: drain, merge, advance_pass.
  double boundary = 0.0;
  for (std::size_t p = 0; p < rep.windows.size(); ++p) {
    const double next = p + 1 < rep.windows.size() ? rep.windows[p + 1].begin
                                                   : rep.run_end;
    boundary += next - rep.windows[p].exhausted;
  }
  const double run = rep.run_end - rep.run_begin;
  s["engine.run_s"] = run;
  s["engine.self_s"] = run - s["stream.serve_s"] - caller_thread;
  s["engine.pass_boundary_s"] = boundary - s["proc.finish_s"];
  s["engine.batches"] = static_cast<double>(rep.stats.batches);
  s["engine.backpressure_waits"] =
      static_cast<double>(rep.stats.backpressure_waits);
  s["stream.updates"] = static_cast<double>(rep.updates_served);
  return s;
}

// Absorb call durations in ms, pooled over the traced reps, per layer and
// under "proc" for every processor together.
[[nodiscard]] std::map<std::string, std::vector<double>> absorb_calls_ms(
    const std::vector<Rep>& reps) {
  std::map<std::string, std::vector<double>> ms;
  for (const Rep& rep : reps) {
    for (const auto& [layer, spans] : rep.layer_spans) {
      for (const Span& span : spans) {
        if (span.kind != SpanKind::kAbsorb) continue;
        ms[layer].push_back(span.seconds() * 1e3);
        ms["proc"].push_back(span.seconds() * 1e3);
      }
    }
  }
  return ms;
}

// ---- output ----------------------------------------------------------------

[[nodiscard]] std::string metric_json(const Summary& s, const char* unit) {
  return JsonObject()
      .num("value", s.median)
      .str("unit", unit)
      .num("q1", s.q1)
      .num("q3", s.q3)
      .integer("n", s.n)
      .dump();
}

[[nodiscard]] std::string metric_json(double value, const char* unit) {
  return JsonObject()
      .num("value", value)
      .str("unit", unit)
      .integer("n", 1)
      .dump();
}

[[nodiscard]] std::string span_name(const std::string& layer, SpanKind kind) {
  if (kind == SpanKind::kClone || kind == SpanKind::kMerge) {
    return std::string("engine.") + span_suffix(kind) + "." + layer;
  }
  return layer + "." + span_suffix(kind);
}

// The trace file: every per-layer median (per processor too) and every
// span, written once at exit.
void write_trace_file(const std::string& path, const Spec& spec,
                      std::uint64_t seed, const std::vector<Rep>& reps,
                      const JsonObject& layer_metrics) {
  std::string spans = "[";
  const auto emit = [&spans](const std::string& name, const char* parent,
                             std::uint32_t rep, double start, double end) {
    spans += spans.size() > 1 ? ",\n" : "\n";
    spans += JsonObject()
                 .str("name", name)
                 .str("parent", parent)
                 .integer("rep", rep)
                 .num("start", start)
                 .num("end", end)
                 .dump();
  };
  std::size_t traced = 0;
  for (const Rep& rep : reps) {
    if (!rep.traced) continue;
    ++traced;
    emit("engine.run", "", rep.id, rep.run_begin, rep.run_end);
    for (const Span& s : rep.serve_spans) {
      emit("stream.serve", "engine.run", s.rep, s.start, s.end);
    }
    for (const auto& [layer, layer_spans] : rep.layer_spans) {
      for (const Span& s : layer_spans) {
        emit(span_name(layer, s.kind),
             s.on_worker ? "engine.worker" : "engine.run", s.rep, s.start,
             s.end);
      }
    }
  }
  spans += "\n]";

  std::ofstream f(path);
  f << JsonObject()
           .str("workload", spec.name)
           .integer("seed", seed)
           .integer("traced_reps", traced)
           .raw("metrics", layer_metrics.dump())
           .raw("spans", spans)
           .dump()
    << "\n";
  if (!f) std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
}

// ---- argument parsing ------------------------------------------------------

[[noreturn]] void usage_error(const std::string& message) {
  std::string names;
  for (const Spec& s : kSpecs) {
    names += std::string(names.empty() ? "" : ", ") + s.name;
  }
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed S "
               "[--seconds T] [--trace FILE]\nworkloads: %s\n",
               message.c_str(), names.c_str());
  std::exit(2);
}

[[nodiscard]] std::uint64_t parse_seed(const std::string& text) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage_error("malformed --seed '" + text +
                "' (expected a decimal integer in [0, 2^64))");
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) usage_error("--seed '" + text + "' out of range");
  return v;
}

[[nodiscard]] double parse_seconds(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(v > 0.0) || v > 3600.0) {
    usage_error("malformed --seconds '" + text + "' (expected 0 < T <= 3600)");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Spec* spec = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      spec = find_spec(value);
      if (spec == nullptr) usage_error("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      seed = parse_seed(value);
    } else if (flag == "--seconds") {
      seconds = parse_seconds(value);
    } else if (flag == "--trace") {
      trace_path = value;
    } else {
      usage_error("unknown argument '" + flag + "'");
    }
  }
  if (spec == nullptr) usage_error("--workload is required");
  if (!seed) usage_error("--seed is required");
  const bool trace_mode = !trace_path.empty();

  // Keep freed memory in the process: every rep after the warm-up then
  // reuses pages that are already faulted in.  First-touch page faults on a
  // shared virtual machine swing rep times by tens of percent and would
  // drown the library's own costs; peak RSS is a high-water mark either way.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  const Inputs in = make_inputs(*spec, *seed);

  // fanout_sharded must reproduce fanout_seq bit for bit: take the
  // sequential job's digests first, outside the measured region.
  std::vector<Output> seq_reference;
  if (spec->shards > 1) {
    Spec seq = *spec;
    seq.shards = 1;
    seq_reference = run_rep(seq, in, 0, false, false).outputs;
  }
  // Peak RSS covers this workload's reps only (inputs stay resident).
  malloc_trim(0);
  if (!reset_peak_rss()) {
    std::fprintf(stderr,
                 "bench_e2e: cannot reset VmHWM; peak_rss_mb includes input "
                 "generation\n");
  }

  // Warm-up rep: untimed; its results are the checked reference.
  Rep warm = run_rep(*spec, in, 0, false, true);
  std::map<std::string, std::string> errors =
      check_results(*spec, in, warm.results);
  for (std::size_t i = 0; i < seq_reference.size(); ++i) {
    if (seq_reference[i].digest != warm.outputs[i].digest) {
      errors[warm.outputs[i].layer] = "output differs from the shards=1 run";
    }
  }
  warm.results = Results{};

  std::vector<Rep> reps;
  const double deadline = now_s() + seconds;
  while (reps.size() < kMaxReps &&
         (reps.size() < kMinReps || now_s() < deadline)) {
    const auto id = static_cast<std::uint32_t>(reps.size() + 1);
    const bool traced = trace_mode && reps.size() % 2 == 1;
    reps.push_back(run_rep(*spec, in, id, traced, false));
  }
  if (trace_mode && reps.size() % 2 == 1) {
    const auto id = static_cast<std::uint32_t>(reps.size() + 1);
    reps.push_back(run_rep(*spec, in, id, true, false));
  }
  const double peak_mb = peak_rss_mb();

  // An operation is one processor result.  It fails when its layer failed a
  // check or its rep did not reproduce the warm-up output.  Degradation the
  // library itself flags (health(): a decode failure the result survived)
  // is counted apart, per unit -- one per result, one per spanner instance
  // inside KP12 -- since the guarantees hold with high probability only.
  std::size_t attempted = 0, failed = 0, units = 0, degraded_units = 0;
  bool correct = true;
  for (const auto& [layer, err] : errors) correct = correct && err.empty();
  for (const Rep& rep : reps) {
    for (std::size_t i = 0; i < rep.outputs.size(); ++i) {
      const Output& o = rep.outputs[i];
      if (o.digest != warm.outputs[i].digest) {
        correct = false;
        errors[o.layer] = "a timed rep did not reproduce the warm-up output";
      }
      ++attempted;
      failed += errors[o.layer].empty() ? 0 : 1;
      units += o.units;
      degraded_units += o.degraded_units;
    }
  }

  std::vector<double> setup, total, rate, latency;
  std::map<std::string, std::vector<double>> layer_series;
  for (const Rep& rep : reps) {
    if (rep.traced) {
      for (const auto& [name, value] : trace_sums(rep)) {
        layer_series[name].push_back(value);
      }
      continue;
    }
    setup.push_back(rep.setup_s);
    total.push_back(rep.total_s);
    rate.push_back(static_cast<double>(rep.updates_served) / rep.ingest_s);
    latency.push_back(rep.latency_s);
  }
  std::size_t output_edges = 0;
  double nominal_mb = 0.0;
  for (const Output& o : warm.outputs) {
    output_edges += o.edges;
    nominal_mb += o.nominal_mb;
  }

  JsonObject metrics;
  if (!trace_mode) {
    metrics.raw("total_s", metric_json(summarize(total), "s"))
        .raw("ingest_updates_per_s", metric_json(summarize(rate), "updates/s"))
        .raw("result_latency_s", metric_json(summarize(latency), "s"))
        .raw("setup_s", metric_json(summarize(setup), "s"))
        .raw("peak_rss_mb", metric_json(peak_mb, "MiB"))
        .raw("output_edges",
             metric_json(static_cast<double>(output_edges), "edges"));
  } else {
    const auto series = [&layer_series](const char* name) {
      return summarize(layer_series.at(name));
    };
    const double overhead =
        series("engine.run_s").median / summarize(total).median - 1.0;
    const auto calls_ms = absorb_calls_ms(reps);
    metrics.raw("stream.serve_s", metric_json(series("stream.serve_s"), "s"))
        .raw("stream.updates", metric_json(series("stream.updates"), "count"))
        .raw("engine.run_s", metric_json(series("engine.run_s"), "s"))
        .raw("engine.self_s", metric_json(series("engine.self_s"), "s"))
        .raw("engine.pass_boundary_s",
             metric_json(series("engine.pass_boundary_s"), "s"))
        .raw("engine.batches", metric_json(series("engine.batches"), "count"))
        .raw("proc.absorb_s", metric_json(series("proc.absorb_s"), "s"))
        .raw("proc.absorb_calls",
             metric_json(series("proc.absorb_calls"), "count"))
        .raw("proc.absorb_ms_p50",
             metric_json(summarize(calls_ms.at("proc")), "ms"))
        .raw("proc.finish_s", metric_json(series("proc.finish_s"), "s"))
        .raw("proc.nominal_mb", metric_json(nominal_mb, "MiB"))
        .raw("trace.overhead_frac", metric_json(overhead, "ratio"));

    // The trace file also splits every layer metric per processor.
    JsonObject all;
    for (const auto& [name, values] : layer_series) {
      all.num(name, summarize(values).median);
    }
    for (const auto& [layer, ms] : calls_ms) {
      all.num(layer + ".absorb_ms_p50", summarize(ms).median);
      if (const auto p90 = tail_percentile(ms, 90.0)) {
        all.num(layer + ".absorb_ms_p90", *p90);
      }
    }
    for (const Output& o : warm.outputs) {
      all.integer(o.layer + ".decode_failures", o.decode_failures)
          .num(o.layer + ".nominal_mb", o.nominal_mb);
      if (o.layer == "core.spanner") {
        all.num(o.layer + ".touched_mb", o.touched_mb);
      }
    }
    all.num("proc.nominal_mb", nominal_mb).num("trace.overhead_frac", overhead);
    write_trace_file(trace_path, *spec, *seed, reps, all);
  }

  JsonObject error_json;
  for (const auto& [layer, err] : errors) {
    if (!err.empty()) error_json.str(layer, err);
  }
  const std::size_t threads =
      (spec->shards > 1 ? spec->shards + 1 : 1);  // decode/ingest lanes: 1
  std::printf("%s\n",
              JsonObject()
                  .str("workload", spec->name)
                  .integer("seed", *seed)
                  .integer("hardware_threads",
                           std::thread::hardware_concurrency())
                  .integer("threads", threads)
                  .integer("updates_per_pass", in.stream.size())
                  .integer("reps", reps.size())
                  .boolean("correct", correct)
                  .integer("attempted", attempted)
                  .integer("failed", failed)
                  .integer("units", units)
                  .integer("degraded_units", degraded_units)
                  .raw("errors", error_json.dump())
                  .raw("metrics", metrics.dump())
                  .dump()
                  .c_str());
  return correct ? 0 : 1;
}
