#include "core/kp12_sparsifier.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "engine/processors.h"
#include "engine/stream_engine.h"
#include "graph/shortest_paths.h"
#include "stream/weight_classes.h"
#include "util/bit_util.h"
#include "util/random.h"

namespace kw {

SpannerOracle::SpannerOracle(Graph spanner, std::size_t max_cached_sources)
    : spanner_(std::move(spanner)),
      max_cached_(std::max<std::size_t>(1, max_cached_sources)) {}

double SpannerOracle::distance(Vertex u, Vertex v) {
  auto it = cache_.find(u);
  if (it == cache_.end()) {
    std::vector<std::uint32_t> row;
    if (cache_.size() >= max_cached_) {
      // Evict the oldest source and recycle its row's allocation for the
      // fresh BFS -- the cache never holds more than max_cached_ rows and
      // steady-state queries allocate nothing.
      const Vertex victim = eviction_order_[next_victim_];
      auto victim_it = cache_.find(victim);
      row = std::move(victim_it->second);
      cache_.erase(victim_it);
      eviction_order_[next_victim_] = u;
      next_victim_ = (next_victim_ + 1) % eviction_order_.size();
    } else {
      eviction_order_.push_back(u);
    }
    bfs_distances_into(spanner_, u, row);
    it = cache_.emplace(u, std::move(row)).first;
  }
  const std::uint32_t d = it->second[v];
  return d == kUnreachableHops ? kUnreachableDist : static_cast<double>(d);
}

Kp12Sparsifier::Kp12Sparsifier(Vertex n, const Kp12Config& config)
    : n_(n), config_(config) {
  t_levels_ = config_.t_levels > 0 ? config_.t_levels
                                   : ceil_log2(std::max<Vertex>(n_, 2)) + 1;
  h_levels_ = 2 * ceil_log2(std::max<Vertex>(n_, 2)) + 1;
  estimate_hashes_.reserve(config_.j_copies);
  for (std::size_t j = 0; j < config_.j_copies; ++j) {
    estimate_hashes_.emplace_back(8, derive_seed(config_.seed, 0x3000 + j));
  }
  sample_hashes_.reserve(config_.z_samples);
  for (std::size_t s = 0; s < config_.z_samples; ++s) {
    sample_hashes_.emplace_back(8, derive_seed(config_.seed, 0x5000 + s));
  }
}

void Kp12Sparsifier::ensure_instances() {
  if (initialized_) return;
  initialized_ = true;
  // One seed -- hence ONE SpannerGeometry (hierarchy, level hashes, page
  // geometries, y caps) -- per membership ROW: the T nested instances of an
  // ESTIMATE copy see nested substreams of the same row and are never voted
  // against each other (the Algorithm 4 majority is across the J copies at
  // a fixed t), so sharing the row's randomness preserves every per-level
  // success bound while the heavy geometry is constructed J + Z times
  // instead of J*T + Z*H.  Same argument for a SAMPLE invocation's H
  // levels: averaging is across the Z invocations.
  //
  // ESTIMATE oracles O[j][t] on E^j_t (nested in t at rate 2^{-(t-1)}).
  oracles_.resize(config_.j_copies);
  for (std::size_t j = 0; j < config_.j_copies; ++j) {
    TwoPassConfig sc = config_.spanner;
    sc.augmented = false;
    sc.seed = derive_seed(config_.seed, 0x4000 + j * 256);
    const auto geo = SpannerGeometry::make(n_, sc);
    oracles_[j].reserve(t_levels_);
    for (std::size_t t = 0; t < t_levels_; ++t) {
      oracles_[j].emplace_back(geo);
    }
  }
  // SAMPLE instances A[s][j] on E_{s,j} (nested in j, independent in s),
  // augmented per Claims 16/18/20.
  samplers_.resize(config_.z_samples);
  for (std::size_t s = 0; s < config_.z_samples; ++s) {
    TwoPassConfig sc = config_.spanner;
    sc.augmented = true;
    sc.seed = derive_seed(config_.seed, 0x6000 + s * 256);
    const auto geo = SpannerGeometry::make(n_, sc);
    samplers_[s].reserve(h_levels_);
    for (std::size_t j = 0; j < h_levels_; ++j) {
      samplers_[s].emplace_back(geo);
    }
  }
  // If the first update only arrives in pass 2 (possible behind a demux
  // over a non-replay source), the instances must catch up to the phase.
  if (phase_ == Phase::kPass2) {
    for (auto& row : oracles_) {
      for (auto& o : row) o.finish_pass1();
    }
    for (auto& row : samplers_) {
      for (auto& a : row) a.finish_pass1();
    }
  }
}

std::size_t Kp12Sparsifier::ingest_lane_cap() const {
  return WorkerPool::resolve_lanes(config_.ingest_workers);
}

std::size_t Kp12Sparsifier::decode_lane_cap() const {
  if (config_.decode_workers != 0) {
    return WorkerPool::resolve_lanes(config_.decode_workers);
  }
  if (engine_decode_lanes_ != 0) return engine_decode_lanes_;
  return WorkerPool::resolve_lanes(0);
}

void Kp12Sparsifier::use_worker_pool(std::shared_ptr<WorkerPool> pool,
                                     std::size_t decode_lanes) {
  shared_pool_ = std::move(pool);
  engine_decode_lanes_ = decode_lanes;
}

WorkerPool& Kp12Sparsifier::pool() {
  const std::size_t want = std::max(ingest_lane_cap(), decode_lane_cap());
  // Prefer the engine's shared budget; fall back to a private pool only
  // when this instance's explicit config demands more lanes than the
  // engine allotted (a test knob -- the default 0/auto never does).
  if (shared_pool_ && shared_pool_->lanes() >= want) return *shared_pool_;
  if (!pool_ || pool_->lanes() < want) {
    pool_ = std::make_unique<WorkerPool>(want);
  }
  return *pool_;
}

Kp12Sparsifier::Kp12Sparsifier(const Kp12Sparsifier& other, EmptyCloneTag)
    : n_(other.n_),
      config_(other.config_),
      phase_(other.phase_),
      initialized_(other.initialized_),
      t_levels_(other.t_levels_),
      h_levels_(other.h_levels_),
      estimate_hashes_(other.estimate_hashes_),
      sample_hashes_(other.sample_hashes_) {
  // Clones live inside concurrent-ingest worker threads (one shard per
  // worker): the shard thread IS the lane, so a clone must never spin a
  // nested pool next to the driver's workers.  Execution-only knobs --
  // forcing them to 1 cannot perturb the merged state.
  config_.ingest_workers = 1;
  config_.decode_workers = 1;
  oracles_.resize(other.oracles_.size());
  for (std::size_t j = 0; j < other.oracles_.size(); ++j) {
    oracles_[j].reserve(other.oracles_[j].size());
    for (const auto& o : other.oracles_[j]) {
      oracles_[j].push_back(o.clone_empty_instance());
    }
  }
  samplers_.resize(other.samplers_.size());
  for (std::size_t s = 0; s < other.samplers_.size(); ++s) {
    samplers_[s].reserve(other.samplers_[s].size());
    for (const auto& a : other.samplers_[s]) {
      samplers_[s].push_back(a.clone_empty_instance());
    }
  }
}

void Kp12Sparsifier::absorb(std::span<const EdgeUpdate> batch) {
  if (phase_ == Phase::kDone) {
    throw std::logic_error("Kp12Sparsifier: absorb() after finish()");
  }
  check_endpoints(batch, n_, "Kp12Sparsifier");
  if (batch.empty()) return;
  ensure_instances();

  // ---- stage the batch ONCE -------------------------------------------
  // Pair ids are computed once per update and shared by every instance;
  // self-loops are dropped here because no instance ever ingests them.
  staged_.clear();
  for (const EdgeUpdate& upd : batch) {
    if (upd.u == upd.v) continue;
    staged_.push_back({pair_id(upd.u, upd.v, n_), upd.u, upd.v, 0, upd.delta});
  }
  if (staged_.empty()) return;

  // Coordinate dedup WITH delta aggregation: churn cancels at staging, and
  // every membership hash below runs once per UNIQUE coordinate.
  aggregate_batch_entries(staged_, ucoords_, slot_table_, slot_ids_);

  // ---- scatter the membership rows across the pool --------------------
  // Row r owns its scratch and its nested instances and only READS the
  // shared staging above, so any lane assignment produces the sequential
  // result bit for bit.
  const std::size_t rows = config_.j_copies + config_.z_samples;
  if (row_scratch_.size() < rows) row_scratch_.resize(rows);
  pool().run(
      rows,
      [this](std::size_t r) {
        if (r < config_.j_copies) {
          dispatch_copy(estimate_hashes_[r], t_levels_, oracles_[r],
                        row_scratch_[r]);
        } else {
          const std::size_t s = r - config_.j_copies;
          dispatch_copy(sample_hashes_[s], h_levels_, samplers_[s],
                        row_scratch_[r]);
        }
      },
      ingest_lane_cap());
}

void Kp12Sparsifier::dispatch_copy(const KWiseHash& hash, std::size_t levels,
                                   std::vector<TwoPassSpanner>& row,
                                   RowScratch& scratch) {
  const std::size_t count = staged_.size();  // entry i == coordinate slot i
  const std::size_t cap = levels - 1;

  // Survive level (the deepest nested rate 2^-L a pair survives) for every
  // unique coordinate: one eval_many Horner sweep plus the bit_width closed
  // form (no per-level loop, no per-update hash).  The closed form's
  // equivalence with the per-level loop, max_level boundary included, is
  // pinned in tests/test_kp12_sparsifier.cc.
  scratch.hash_vals.resize(count);
  hash.eval_many(ucoords_, scratch.hash_vals);
  scratch.slot_level.resize(count);
  for (std::size_t s = 0; s < count; ++s) {
    scratch.slot_level[s] = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        cap, KWiseHash::deepest_level(scratch.hash_vals[s])));
  }

  // Counting-sort the entries by DESCENDING level: the entries surviving
  // rate 2^-t (level >= t) become the prefix [0, fence(t)), so all T
  // nested instances of this copy share ONE sorted staging.  Sort key
  // d = cap - level.
  scratch.level_start.assign(levels + 1, 0);
  for (std::size_t s = 0; s < count; ++s) {
    ++scratch.level_start[cap - scratch.slot_level[s] + 1];
  }
  for (std::size_t d = 1; d <= levels; ++d) {
    scratch.level_start[d] += scratch.level_start[d - 1];
  }
  scratch.sorted_entries.resize(count);
  scratch.sorted_ucoords.resize(count);
  scratch.cursor.assign(scratch.level_start.begin(),
                        scratch.level_start.end() - 1);
  for (std::size_t s = 0; s < count; ++s) {
    const std::uint32_t pos = scratch.cursor[cap - scratch.slot_level[s]]++;
    SpannerBatchEntry e = staged_[s];
    e.slot = pos;  // sorted entry i references sorted coordinate i
    scratch.sorted_entries[pos] = e;
    scratch.sorted_ucoords[pos] = ucoords_[s];
  }

  // Instance (·, t) ingests exactly the prefix surviving rate 2^-t; the
  // whole nested row rides ONE staged computation (pass1_ingest_row /
  // pass2_ingest_row) over the sorted entries.
  scratch.instances.clear();
  scratch.prefixes.clear();
  for (std::size_t t = 0; t < levels; ++t) {
    const std::size_t prefix = scratch.level_start[cap - t + 1];
    if (prefix == 0) break;  // deeper prefixes only shrink
    scratch.instances.push_back(&row[t]);
    scratch.prefixes.push_back(prefix);
  }
  if (scratch.instances.empty()) return;
  const std::span<const SpannerBatchEntry> entries{
      scratch.sorted_entries.data(), scratch.prefixes.front()};
  if (phase_ == Phase::kPass1) {
    TwoPassSpanner::pass1_ingest_row(
        scratch.instances, scratch.prefixes, entries,
        {scratch.sorted_ucoords.data(), scratch.prefixes.front()});
  } else {
    TwoPassSpanner::pass2_ingest_row(scratch.instances, scratch.prefixes,
                                     entries);
  }
}

void Kp12Sparsifier::advance_pass() {
  if (phase_ != Phase::kPass1) {
    throw std::logic_error("Kp12Sparsifier: advance_pass() outside pass 1");
  }
  // Whole instances are disjoint islands: fan the between-pass advance out
  // over every (row, level) instance at once.
  std::vector<TwoPassSpanner*> all;
  all.reserve(oracles_.size() * t_levels_ + samplers_.size() * h_levels_);
  for (auto& row : oracles_) {
    for (auto& o : row) all.push_back(&o);
  }
  for (auto& row : samplers_) {
    for (auto& a : row) all.push_back(&a);
  }
  pool().run(
      all.size(), [&all](std::size_t i) { all[i]->finish_pass1(); },
      ingest_lane_cap());
  phase_ = Phase::kPass2;
}

std::unique_ptr<StreamProcessor> Kp12Sparsifier::clone_empty() const {
  if (phase_ == Phase::kDone) return nullptr;
  return std::unique_ptr<StreamProcessor>(
      new Kp12Sparsifier(*this, EmptyCloneTag{}));
}

void Kp12Sparsifier::merge(StreamProcessor&& other) {
  auto& o = merge_cast<Kp12Sparsifier>(other);
  if (o.n_ != n_ || o.config_.seed != config_.seed || o.phase_ != phase_) {
    throw std::invalid_argument(
        "Kp12Sparsifier::merge: incompatible instance (n/seed/phase)");
  }
  if (!o.initialized_) return;  // the shard saw no updates: nothing to fold
  ensure_instances();
  for (std::size_t j = 0; j < oracles_.size(); ++j) {
    for (std::size_t t = 0; t < oracles_[j].size(); ++t) {
      oracles_[j][t].merge(std::move(o.oracles_[j][t]));
    }
  }
  for (std::size_t s = 0; s < samplers_.size(); ++s) {
    for (std::size_t j = 0; j < samplers_[s].size(); ++j) {
      samplers_[s][j].merge(std::move(o.samplers_[s][j]));
    }
  }
}

void Kp12Sparsifier::accumulate_health(const TwoPassDiagnostics& d) {
  health_.sparse_recovery_failures += d.pass1_scan_failures;
  health_.kv_failures +=
      d.pass2_tables_undecodable + d.pass2_neighbors_unrecovered;
  health_.failures_per_round.push_back(d.pass1_scan_failures +
                                       d.pass2_tables_undecodable +
                                       d.pass2_neighbors_unrecovered);
  if (!d.healthy()) health_.degraded = true;
}

ProcessorHealth Kp12Sparsifier::health() const { return health_; }

void Kp12Sparsifier::finish() {
  if (phase_ != Phase::kPass2) {
    throw std::logic_error("Kp12Sparsifier: finish() outside pass 2");
  }
  phase_ = Phase::kDone;
  health_ = ProcessorHealth{};
  health_.name = "Kp12Sparsifier";

  const double lambda = std::pow(2.0, static_cast<double>(config_.spanner.k));
  const double cutoff = lambda * lambda;

  Kp12Result result;
  auto& diag = result.diagnostics;
  // Never-updated instances were never built (ensure_instances): report
  // zero instances and an empty sparsifier, as the legacy empty-class path
  // did.
  diag.oracle_instances = initialized_ ? config_.j_copies * t_levels_ : 0;
  diag.sample_instances = initialized_ ? config_.z_samples * h_levels_ : 0;

  // ---- Finish all instances -------------------------------------------
  // The decode-heavy terminal-table work fans out at (instance, terminal)
  // granularity: begin_finish() flips phases sequentially, every
  // decode_terminal(instance, t) task touches only its own slot (disjoint
  // even within one instance), and complete_finish() folds the slots in
  // fleet order -- bit-identical to the sequential per-instance finish()
  // at every lane count.  Aggregation below stays sequential.
  {
    std::vector<TwoPassSpanner*> all;
    for (auto& row : oracles_) {
      for (auto& o : row) all.push_back(&o);
    }
    for (auto& row : samplers_) {
      for (auto& a : row) all.push_back(&a);
    }
    std::vector<std::pair<TwoPassSpanner*, std::size_t>> tasks;
    for (TwoPassSpanner* inst : all) {
      const std::size_t terminals = inst->begin_finish();
      for (std::size_t t = 0; t < terminals; ++t) tasks.push_back({inst, t});
    }
    pool().run(
        tasks.size(),
        [&tasks](std::size_t i) {
          tasks[i].first->decode_terminal(tasks[i].second);
        },
        decode_lane_cap());
    for (TwoPassSpanner* inst : all) inst->complete_finish();
  }
  std::vector<std::vector<SpannerOracle>> oracle_graphs;
  oracle_graphs.reserve(config_.j_copies);
  for (auto& row : oracles_) {
    std::vector<SpannerOracle> out;
    out.reserve(row.size());
    for (auto& o : row) {
      TwoPassResult r = o.take_result();
      result.nominal_bytes += r.nominal_bytes;
      if (!r.diagnostics.healthy()) ++diag.unhealthy_spanners;
      accumulate_health(r.diagnostics);
      out.emplace_back(std::move(r.spanner));
    }
    oracle_graphs.push_back(std::move(out));
  }

  // sample_outputs[s][j]: spanner edges + augmented (execution-path) edges.
  std::vector<std::vector<std::vector<Edge>>> sample_outputs(
      samplers_.size());
  for (std::size_t s = 0; s < samplers_.size(); ++s) {
    sample_outputs[s].reserve(h_levels_);
    for (std::size_t j = 0; j < h_levels_; ++j) {
      TwoPassResult r = samplers_[s][j].take_result();
      result.nominal_bytes += r.nominal_bytes;
      if (!r.diagnostics.healthy()) ++diag.unhealthy_spanners;
      accumulate_health(r.diagnostics);
      // Augmented edges already include everything decoded; union in the
      // spanner's own edges (witnesses etc.) for safety.
      std::map<std::pair<Vertex, Vertex>, double> dedup;
      for (const auto& e : r.augmented_edges) {
        dedup.try_emplace({std::min(e.u, e.v), std::max(e.u, e.v)}, 1.0);
      }
      for (const auto& e : r.spanner.edges()) {
        dedup.try_emplace({std::min(e.u, e.v), std::max(e.u, e.v)}, 1.0);
      }
      std::vector<Edge> edges;
      edges.reserve(dedup.size());
      for (const auto& [key, w] : dedup) {
        edges.push_back({key.first, key.second, w});
      }
      sample_outputs[s].push_back(std::move(edges));
    }
  }

  // ---- ESTIMATE queries (Algorithm 4, query side) ----------------------
  // q(e) = 2^{-t*}, t* = smallest t such that >= (1-delta) J copies report
  // oracle distance > lambda^2.  Cached per pair.
  std::unordered_map<std::uint64_t, std::size_t> q_exponent;  // pair -> t*
  auto q_of = [&](Vertex u, Vertex v) -> std::size_t {
    const std::uint64_t pair = pair_id(u, v, n_);
    const auto it = q_exponent.find(pair);
    if (it != q_exponent.end()) return it->second;
    ++diag.q_queries;
    std::size_t t_star = t_levels_;  // sentinel: "never disconnects"
    for (std::size_t t = 0; t < t_levels_; ++t) {
      std::size_t votes = 0;
      for (std::size_t j = 0; j < config_.j_copies; ++j) {
        if (oracle_graphs[j][t].distance(u, v) > cutoff) ++votes;
      }
      if (static_cast<double>(votes) >=
          config_.xi_threshold_fraction *
              static_cast<double>(config_.j_copies)) {
        t_star = t;
        break;
      }
    }
    q_exponent.emplace(pair, t_star);
    return t_star;
  };

  // ---- SAMPLE + SPARSIFY (Algorithms 5-6) -------------------------------
  // Edge e contributes weight 2^{j} / Z each time invocation s outputs it at
  // exactly level j = t*(e).
  std::map<std::pair<Vertex, Vertex>, double> weight;
  for (std::size_t s = 0; s < sample_outputs.size(); ++s) {
    for (std::size_t j = 0; j < h_levels_; ++j) {
      for (const auto& e : sample_outputs[s][j]) {
        const std::size_t t_star = q_of(e.u, e.v);
        if (t_star != j) continue;  // Alg 5 line 7: weight 0
        weight[{std::min(e.u, e.v), std::max(e.u, e.v)}] +=
            std::pow(2.0, static_cast<double>(j)) /
            static_cast<double>(config_.z_samples);
      }
    }
  }

  Graph sparsifier(n_);
  for (const auto& [key, w] : weight) {
    if (w <= 0.0) continue;
    sparsifier.add_edge(key.first, key.second, w);
    ++diag.edges_weighted;
  }
  result.sparsifier = std::move(sparsifier);
  result_ = std::move(result);
}

Kp12Result Kp12Sparsifier::take_result() {
  if (!result_.has_value()) {
    throw std::logic_error(
        "Kp12Sparsifier: result unavailable (finish() not reached or result "
        "already taken)");
  }
  Kp12Result out = std::move(*result_);
  result_.reset();
  return out;
}

Kp12Result Kp12Sparsifier::run(const DynamicStream& stream) {
  StreamEngine::run_single(*this, stream);
  return take_result();
}

WeightedKp12Result weighted_kp12_sparsify(const DynamicStream& stream,
                                          const Kp12Config& config,
                                          double wmin, double wmax,
                                          double class_eps) {
  const WeightClassPartition partition(wmin, wmax, class_eps);
  // One sparsifier per weight class, all riding the same two physical
  // passes behind a single update-classifying demux (no materialized
  // substreams; empty classes never instantiate their sketches).
  std::vector<std::unique_ptr<Kp12Sparsifier>> instances;
  instances.reserve(partition.num_classes());
  for (std::size_t cls = 0; cls < partition.num_classes(); ++cls) {
    Kp12Config cc = config;
    cc.seed = derive_seed(config.seed, 0x8800 + cls);
    instances.push_back(std::make_unique<Kp12Sparsifier>(stream.n(), cc));
  }
  std::vector<StreamProcessor*> lanes;
  lanes.reserve(instances.size());
  for (auto& instance : instances) lanes.push_back(instance.get());
  DemuxProcessor demux(std::move(lanes), [&partition](const EdgeUpdate& upd) {
    return partition.class_of(upd.weight);
  });
  StreamEngine engine;
  engine.attach(demux);
  (void)engine.run(stream);

  WeightedKp12Result out;
  std::map<std::pair<Vertex, Vertex>, double> weights;
  for (std::size_t cls = 0; cls < instances.size(); ++cls) {
    Kp12Result r = instances[cls]->take_result();
    const double scale = partition.representative(cls) * (1.0 + class_eps);
    for (const auto& e : r.sparsifier.edges()) {
      weights[{std::min(e.u, e.v), std::max(e.u, e.v)}] += e.weight * scale;
    }
    out.per_class.push_back(r.diagnostics);
    out.nominal_bytes += r.nominal_bytes;
  }
  Graph g(stream.n());
  for (const auto& [key, w] : weights) g.add_edge(key.first, key.second, w);
  out.sparsifier = std::move(g);
  return out;
}

}  // namespace kw
