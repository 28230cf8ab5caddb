#include "agm/spanning_forest.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "graph/connectivity.h"

namespace kw {

ForestResult agm_spanning_forest(const BankGroup& group,
                                 std::size_t group_first, std::size_t rounds,
                                 const std::vector<std::uint32_t>& partition,
                                 WorkerPool* pool,
                                 std::size_t decode_lanes) {
  const auto n = static_cast<Vertex>(group.vertices());
  if (partition.size() != n) {
    throw std::invalid_argument("partition size mismatch");
  }
  if (group_first + rounds > group.groups()) {
    throw std::invalid_argument("forest round range exceeds bank group");
  }
  // Union-find over original vertices; supernodes pre-merged.  Note: edges
  // internal to a supernode cancel in the summed sketch only if the
  // supernode's member set is summed, which is exactly what we do -- so a
  // decoded edge is always a boundary edge of its component.
  UnionFind uf(n);
  {
    std::vector<Vertex> first_of(n, kInvalidVertex);
    for (Vertex v = 0; v < n; ++v) {
      const std::uint32_t label = partition[v];
      if (label >= n) throw std::invalid_argument("bad partition label");
      if (first_of[label] == kInvalidVertex) {
        first_of[label] = v;
      } else {
        uf.unite(first_of[label], v);
      }
    }
  }

  // Lanes the decode scatter may actually occupy; 1 = plain loop.
  std::size_t lanes = 1;
  if (pool != nullptr) {
    lanes = pool->lanes();
    if (decode_lanes != 0) lanes = std::min(lanes, decode_lanes);
    lanes = std::max<std::size_t>(lanes, 1);
  }

  ForestResult result;
  // Decode-side scratch, reused across rounds (every round's bank shares
  // one geometry): one summed-stripe accumulator per LANE, the
  // component-membership counting sort, the per-component decode slots,
  // and the per-round merge list.
  const std::size_t stripe = group.cells_per_stripe();
  std::vector<OneSparseCell> accs(lanes * stripe);
  std::vector<Vertex> root_of(n);
  std::vector<Vertex> members(n);           // vertices grouped by component
  std::vector<std::uint32_t> member_end(n);  // running cursor -> end fences
  std::vector<Vertex> roots;                 // component roots, ascending
  struct RootDecode {
    Edge edge{};
    bool has_edge = false;
    bool failed = false;
  };
  std::vector<RootDecode> decoded;
  std::vector<Edge> merges;
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::size_t g = group_first + round;
    // Group vertices by current component: one counting sort keyed by the
    // component root, flat arrays instead of n vector<Vertex> rebuilds.
    std::fill(member_end.begin(), member_end.end(), 0);
    for (Vertex v = 0; v < n; ++v) {
      root_of[v] = uf.find(v);
      ++member_end[root_of[v]];
    }
    std::uint32_t running = 0;
    for (Vertex root = 0; root < n; ++root) {
      running += member_end[root];
      member_end[root] = running - member_end[root];  // start cursor
    }
    for (Vertex v = 0; v < n; ++v) {
      members[member_end[root_of[v]]++] = v;  // leaves end fences behind
    }
    roots.clear();
    for (Vertex root = 0; root < n; ++root) {
      const std::uint32_t begin = root == 0 ? 0 : member_end[root - 1];
      if (begin != member_end[root]) roots.push_back(root);
    }
    // One summed stripe and one decoded outgoing edge per component.  The
    // round's inputs (group g, counting sort, root_of) are frozen during the
    // scatter; task i writes decoded[i] only and sums into its own lane's
    // accumulator stripe, so any lane assignment decodes the exact
    // sequential cells -- the fold below walks slots in component order,
    // keeping failure counts and merge order bit-identical.
    decoded.assign(roots.size(), RootDecode{});
    const auto decode_root = [&](std::size_t i, std::size_t lane) {
      const Vertex root = roots[i];
      const std::uint32_t begin = root == 0 ? 0 : member_end[root - 1];
      const std::uint32_t end = member_end[root];
      const std::span<OneSparseCell> acc{accs.data() + lane * stripe, stripe};
      std::fill(acc.begin(), acc.end(), OneSparseCell{});
      for (std::uint32_t m = begin; m < end; ++m) {
        group.accumulate(acc, g, members[m], 1);
      }
      const auto rec = group.decode_cells(g, acc);
      if (!rec.has_value()) {
        // Zero sketch = isolated component (fine); nonzero = decode failure.
        decoded[i].failed = !BankGroup::cells_zero(acc);
        return;
      }
      const auto [u, v] = pair_from_id(rec->coord, n);
      if (root_of[u] == root_of[v]) return;  // should not happen; defensive
      decoded[i].edge = {u, v, 1.0};
      decoded[i].has_edge = true;
    };
    if (pool != nullptr && lanes > 1 && roots.size() > 1) {
      pool->run_indexed(roots.size(), decode_root, lanes);
    } else {
      for (std::size_t i = 0; i < roots.size(); ++i) decode_root(i, 0);
    }
    merges.clear();
    std::size_t round_failures = 0;
    for (const RootDecode& d : decoded) {
      if (d.failed) ++round_failures;
      if (d.has_edge) merges.push_back(d.edge);
    }
    result.decode_failures_per_round.push_back(round_failures);
    result.decode_failures += round_failures;
    if (merges.empty()) {
      result.rounds_used = round + 1;
      result.complete = round_failures == 0;
      return result;  // fixed point: spanning unless a decode failed
    }
    for (const auto& e : merges) {
      if (uf.unite(e.u, e.v)) result.edges.push_back(e);
    }
    result.rounds_used = round + 1;
  }
  // Rounds exhausted; completeness unknown -- report potentially incomplete
  // so callers can retry with more rounds.
  result.complete = false;
  return result;
}

ForestResult agm_spanning_forest(const AgmGraphSketch& sketch,
                                 const std::vector<std::uint32_t>& partition) {
  return agm_spanning_forest(sketch.bank_group(), 0, sketch.rounds(),
                             partition);
}

ForestResult agm_spanning_forest(const AgmGraphSketch& sketch) {
  std::vector<std::uint32_t> identity(sketch.n());
  std::iota(identity.begin(), identity.end(), 0u);
  return agm_spanning_forest(sketch, identity);
}

ForestResult agm_spanning_forest(const AgmGraphSketch& sketch,
                                 const std::vector<std::uint32_t>& partition,
                                 WorkerPool& pool, std::size_t decode_lanes) {
  return agm_spanning_forest(sketch.bank_group(), 0, sketch.rounds(),
                             partition, &pool, decode_lanes);
}

// ---- SpanningForestProcessor ----------------------------------------------

SpanningForestProcessor::SpanningForestProcessor(Vertex n,
                                                 const AgmConfig& config)
    : config_(config), sketch_(n, config) {}

SpanningForestProcessor::SpanningForestProcessor(
    Vertex n, const AgmConfig& config, std::vector<std::uint32_t> partition)
    : config_(config), sketch_(n, config), partition_(std::move(partition)) {}

void SpanningForestProcessor::absorb(std::span<const EdgeUpdate> batch) {
  if (finished_) {
    throw std::logic_error("SpanningForestProcessor: absorb() after finish()");
  }
  sketch_.absorb(batch);
}

void SpanningForestProcessor::advance_pass() {
  throw std::logic_error(
      "SpanningForestProcessor: single-pass, advance_pass() is never legal");
}

void SpanningForestProcessor::use_worker_pool(std::shared_ptr<WorkerPool> pool,
                                              std::size_t decode_lanes) {
  pool_ = std::move(pool);
  decode_lanes_ = decode_lanes;
}

void SpanningForestProcessor::finish() {
  if (finished_) {
    throw std::logic_error("SpanningForestProcessor: finish() called twice");
  }
  finished_ = true;
  std::vector<std::uint32_t> identity;
  const std::vector<std::uint32_t>* part = &partition_;
  if (partition_.empty()) {
    identity.resize(sketch_.n());
    std::iota(identity.begin(), identity.end(), 0u);
    part = &identity;
  }
  result_ = agm_spanning_forest(sketch_.bank_group(), 0, sketch_.rounds(),
                                *part, pool_.get(), decode_lanes_);
  health_.name = "SpanningForest";
  health_.l0_failures = result_->decode_failures;
  health_.failures_per_round = result_->decode_failures_per_round;
  health_.degraded = !result_->complete;
}

ProcessorHealth SpanningForestProcessor::health() const { return health_; }

std::unique_ptr<StreamProcessor> SpanningForestProcessor::clone_empty() const {
  if (finished_) return nullptr;
  // Fresh sketch with the shared randomness (seeded config); the partition
  // only matters at finish(), which runs on the merged primary.
  return std::make_unique<SpanningForestProcessor>(sketch_.n(), config_);
}

void SpanningForestProcessor::merge(StreamProcessor&& other) {
  auto& o = merge_cast<SpanningForestProcessor>(other);
  sketch_.merge(o.sketch_, 1);
}

ForestResult SpanningForestProcessor::take_result() {
  if (!result_.has_value()) {
    throw std::logic_error(
        "SpanningForestProcessor: result unavailable (finish() not reached "
        "or result already taken)");
  }
  ForestResult out = std::move(*result_);
  result_.reset();
  return out;
}

}  // namespace kw
