#include "core/two_pass_spanner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/cluster_forest.h"
#include "core/kp12_sparsifier.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "sketch/sparse_recovery.h"
#include "util/bit_util.h"
#include "util/random.h"

namespace kw {
namespace {

[[nodiscard]] TwoPassConfig make_config(unsigned k, std::uint64_t seed) {
  TwoPassConfig c;
  c.k = k;
  c.seed = seed;
  return c;
}

[[nodiscard]] bool subgraph_of(const Graph& h, const Graph& g) {
  for (const auto& e : h.edges()) {
    if (!g.has_edge(e.u, e.v)) return false;
  }
  return true;
}

TEST(TwoPass, UsesExactlyTwoPasses) {
  const Graph g = erdos_renyi_gnm(64, 300, 1);
  const DynamicStream stream = DynamicStream::from_graph(g, 2);
  TwoPassSpanner spanner(64, make_config(2, 3));
  (void)spanner.run(stream);
  EXPECT_EQ(stream.passes_used(), 2u);
}

TEST(TwoPass, SpannerIsSubgraphWithBoundedStretch) {
  const Graph g = erdos_renyi_gnm(128, 900, 5);
  const DynamicStream stream = DynamicStream::from_graph(g, 7);
  TwoPassSpanner spanner(128, make_config(2, 11));
  const TwoPassResult result = spanner.run(stream);
  // A handful of per-neighbor recovery misses is within the whp budget; the
  // stretch assertions below are the hard guarantee.
  EXPECT_EQ(result.diagnostics.pass2_tables_undecodable, 0u);
  EXPECT_LE(result.diagnostics.pass2_neighbors_unrecovered, 5u);
  EXPECT_TRUE(subgraph_of(result.spanner, g));
  const auto report = multiplicative_stretch(g, result.spanner, false);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(report.max_stretch, 4.0 + 1e-9);  // 2^k with k=2
}

TEST(TwoPass, DeletionsDoNotLeakPhantomEdges) {
  const Graph g = erdos_renyi_gnm(96, 500, 13);
  const DynamicStream stream = DynamicStream::with_churn(g, 400, 17);
  TwoPassSpanner spanner(96, make_config(2, 19));
  const TwoPassResult result = spanner.run(stream);
  EXPECT_TRUE(subgraph_of(result.spanner, g))
      << "a deleted edge appeared in the spanner";
  const auto report = multiplicative_stretch(g, result.spanner, false);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(report.max_stretch, 4.0 + 1e-9);
}

TEST(TwoPass, MultiplicityStreams) {
  const Graph g = erdos_renyi_gnm(64, 250, 23);
  const DynamicStream stream =
      DynamicStream::with_multiplicity(g, 3, /*delete_back=*/true, 29);
  TwoPassSpanner spanner(64, make_config(2, 31));
  const TwoPassResult result = spanner.run(stream);
  EXPECT_TRUE(subgraph_of(result.spanner, g));
  const auto report = multiplicative_stretch(g, result.spanner, false);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(report.max_stretch, 4.0 + 1e-9);
}

// Theorem 1 sweep over families and k.
class TwoPassSweep : public ::testing::TestWithParam<
                         std::tuple<std::string, unsigned, std::uint64_t>> {};

TEST_P(TwoPassSweep, StretchWithinTheorem1Bound) {
  const auto [family, k, seed] = GetParam();
  const Graph g = make_family(family, 100, 500, seed);
  const DynamicStream stream = DynamicStream::from_graph(g, seed + 1);
  TwoPassSpanner spanner(g.n(), make_config(k, seed + 2));
  const TwoPassResult result = spanner.run(stream);
  EXPECT_TRUE(subgraph_of(result.spanner, g));
  const auto report = multiplicative_stretch(g, result.spanner, false);
  EXPECT_TRUE(report.connected_ok) << family << " k=" << k;
  EXPECT_LE(report.max_stretch, std::pow(2.0, k) + 1e-9)
      << family << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndK, TwoPassSweep,
    ::testing::Combine(::testing::Values("er", "ba", "grid", "regular",
                                         "path"),
                       ::testing::Values(2u, 3u), ::testing::Values(1u)));

TEST(TwoPass, SizeBoundLemma12) {
  const Vertex n = 192;
  const Graph g = erdos_renyi_gnm(n, 6000, 37);
  const DynamicStream stream = DynamicStream::from_graph(g, 41);
  for (const unsigned k : {2u, 3u}) {
    TwoPassSpanner spanner(n, make_config(k, 43 + k));
    const TwoPassResult result = spanner.run(stream);
    const double bound = 4.0 * k *
                         std::pow(static_cast<double>(n),
                                  1.0 + 1.0 / static_cast<double>(k)) *
                         std::log2(static_cast<double>(n));
    EXPECT_LE(static_cast<double>(result.spanner.m()), bound) << "k=" << k;
  }
}

TEST(TwoPass, AugmentedModeCoversSpanner) {
  const Graph g = erdos_renyi_gnm(80, 400, 47);
  const DynamicStream stream = DynamicStream::from_graph(g, 53);
  TwoPassConfig config = make_config(2, 59);
  config.augmented = true;
  TwoPassSpanner spanner(80, config);
  const TwoPassResult result = spanner.run(stream);
  EXPECT_FALSE(result.augmented_edges.empty());
  // Augmented edges are real edges of G...
  for (const auto& e : result.augmented_edges) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
  // ...and include every spanner edge (execution path covers the output).
  std::set<std::pair<Vertex, Vertex>> augmented;
  for (const auto& e : result.augmented_edges) {
    augmented.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  for (const auto& e : result.spanner.edges()) {
    EXPECT_TRUE(augmented.contains(
        {std::min(e.u, e.v), std::max(e.u, e.v)}));
  }
}

TEST(TwoPass, NominalBytesTrackTheorem1Formula) {
  // ~O(n^{1+1/k}) space: the nominal footprint divided by
  // k n^{1+1/k} log2(n)^3 stays bounded by a constant as n grows (measured
  // ~510-660 bytes/unit across n in [64, 512]; quadratic growth would make
  // this ratio diverge like n^{2-1-1/k} / polylog).
  const unsigned k = 3;
  for (const Vertex n : {128u, 256u}) {
    const Graph g = erdos_renyi_gnm(n, 6u * n, 61);
    const DynamicStream stream = DynamicStream::from_graph(g, 67);
    TwoPassSpanner spanner(n, make_config(k, 71));
    const TwoPassResult result = spanner.run(stream);
    const double nd = static_cast<double>(n);
    const double units =
        k * std::pow(nd, 1.0 + 1.0 / k) * std::pow(std::log2(nd), 3.0);
    const double ratio = static_cast<double>(result.nominal_bytes) / units;
    EXPECT_GT(ratio, 0.0);
    EXPECT_LT(ratio, 1000.0) << "space constant blew up at n=" << n;
  }
}

TEST(TwoPass, PhaseDisciplineEnforced) {
  TwoPassSpanner spanner(16, make_config(2, 1));
  const std::uint64_t coord = pair_id(0, 1, 16);
  const std::vector<SpannerBatchEntry> entries = {{coord, 0, 1, 0, 1}};
  const std::vector<std::uint64_t> ucoords = {coord};
  EXPECT_THROW(spanner.pass2_ingest(entries), std::logic_error);
  EXPECT_THROW((void)spanner.finish(), std::logic_error);
  EXPECT_THROW((void)spanner.forest(), std::logic_error);
  spanner.pass1_ingest(entries, ucoords);
  spanner.finish_pass1();
  EXPECT_THROW(spanner.pass1_ingest(entries, ucoords), std::logic_error);
}

TEST(TwoPass, RejectsPass1RowsOutsideFastKernel) {
  // The staged pass-1 scatter keeps one bucket per row inline, so the
  // geometry accepts pass1_rows in [1, 4] and rejects the rest up front.
  for (const std::size_t rows : {std::size_t{0}, std::size_t{5}}) {
    TwoPassConfig config = make_config(2, 1);
    config.pass1_rows = rows;
    EXPECT_THROW(TwoPassSpanner(16, config), std::invalid_argument)
        << "rows=" << rows;
  }
  for (std::size_t rows = 1; rows <= 4; ++rows) {
    TwoPassConfig config = make_config(2, 1);
    config.pass1_rows = rows;
    EXPECT_NO_THROW(TwoPassSpanner(16, config)) << "rows=" << rows;
  }
}

TEST(TwoPass, RejectsVertexCountBeyondBankLevelMask) {
  // The half-octave Y_j ladder has 2 * ceil(log2 n) + 1 levels; past
  // n = 2^31 that exceeds a pass-2 bank's 64-level mask, and construction
  // must say so before building anything O(n).
  EXPECT_THROW(TwoPassSpanner((Vertex{1} << 31) + 1, make_config(2, 1)),
               std::invalid_argument);
}

TEST(TwoPass, BatchMultiplicityOverflowThrows) {
  // SpannerBatchEntry carries the stream's int32 deltas; two maximal
  // deltas on one coordinate overflow the aggregated sum.
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  std::vector<SpannerBatchEntry> entries = {{pair_id(0, 1, 8), 0, 1, 0, kMax},
                                            {pair_id(0, 1, 8), 0, 1, 0, kMax}};
  std::vector<std::uint64_t> ucoords;
  std::vector<std::uint64_t> slot_table;
  std::vector<std::uint32_t> slot_ids;
  EXPECT_THROW(aggregate_batch_entries(entries, ucoords, slot_table, slot_ids),
               std::overflow_error);
  TwoPassSpanner spanner(8, make_config(2, 1));
  const std::vector<EdgeUpdate> batch = {{0, 1, kMax, 1.0}, {1, 0, kMax, 1.0}};
  EXPECT_THROW(spanner.absorb(batch), std::overflow_error);
}

TEST(TwoPass, WeightedSpannerViaClasses) {
  const Graph g =
      with_geometric_weights(erdos_renyi_gnm(80, 500, 73), 1.0, 16.0, 79);
  const DynamicStream stream = DynamicStream::from_graph(g, 83);
  const WeightedSpannerResult result =
      weighted_two_pass_spanner(stream, make_config(2, 89), 1.0, 16.0, 1.0);
  EXPECT_EQ(stream.passes_used(), 2u);
  // Edge *pairs* of the spanner exist in g (weights are class upper bounds).
  for (const auto& e : result.spanner.edges()) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
  // Weighted stretch: d_H <= (1+eps) * 2^k * d_G with eps = 1.0 -> 8, and
  // d_H >= d_G because class-upper weights dominate true weights.
  const auto report = multiplicative_stretch(g, result.spanner, true);
  EXPECT_TRUE(report.connected_ok);
  EXPECT_LE(report.max_stretch, 8.0 + 1e-9);
}

TEST(TwoPass, EmptyStream) {
  const DynamicStream stream(32);
  TwoPassSpanner spanner(32, make_config(2, 97));
  const TwoPassResult result = spanner.run(stream);
  EXPECT_EQ(result.spanner.m(), 0u);
}

TEST(TwoPass, StarGraphKeepsAllEdges) {
  // A star's edges are all bridges; any spanner with finite stretch keeps
  // every edge.
  const Graph g = star_graph(64);
  const DynamicStream stream = DynamicStream::from_graph(g, 101);
  TwoPassSpanner spanner(64, make_config(2, 103));
  const TwoPassResult result = spanner.run(stream);
  EXPECT_EQ(result.spanner.m(), g.m());
}

// ---- fused-vs-scalar golden contract (the PR-5 sparsifier hot path) ------

[[nodiscard]] std::vector<EdgeUpdate> churny_updates(Vertex n,
                                                     std::uint64_t seed) {
  const Graph g = erdos_renyi_gnm(n, 6ULL * n, seed);
  const DynamicStream stream =
      DynamicStream::with_churn(g, 2ULL * n, seed + 1);
  return stream.updates();
}

[[nodiscard]] bool cells_equal(std::span<const OneSparseCell> a,
                               std::span<const OneSparseCell> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].count != b[i].count || a[i].coord_sum != b[i].coord_sum ||
        a[i].fp1 != b[i].fp1 || a[i].fp2 != b[i].fp2) {
      return false;
    }
  }
  return true;
}

TEST(TwoPass, BatchedAbsorbCellsMatchPerUpdatePath) {
  // Pass-1 pages after the batched absorb() (coordinate dedup + delta
  // aggregation + eval_many staging + grouped scatter) must be
  // bit-identical to the same updates absorbed one at a time, and the final
  // spanners must agree exactly.
  const Vertex n = 48;
  const auto updates = churny_updates(n, 211);
  const TwoPassConfig config = make_config(2, 223);

  TwoPassSpanner batched(n, config);
  TwoPassSpanner scalar(n, config);
  batched.absorb(updates);
  for (const EdgeUpdate& u : updates) scalar.absorb({&u, 1});

  const std::size_t levels = batched.edge_sampling_levels();
  for (std::size_t j = 0; j < levels; ++j) {
    EXPECT_TRUE(cells_equal(batched.pass1_cells(1, j), scalar.pass1_cells(1, j)))
        << "page (r=1, j=" << j << ") diverged";
  }

  batched.advance_pass();
  scalar.advance_pass();
  batched.absorb(updates);
  for (const EdgeUpdate& u : updates) scalar.absorb({&u, 1});
  batched.finish();
  scalar.finish();
  const TwoPassResult rb = batched.take_result();
  const TwoPassResult rs = scalar.take_result();
  ASSERT_EQ(rb.spanner.m(), rs.spanner.m());
  for (std::size_t i = 0; i < rb.spanner.edges().size(); ++i) {
    EXPECT_EQ(rb.spanner.edges()[i].u, rs.spanner.edges()[i].u);
    EXPECT_EQ(rb.spanner.edges()[i].v, rs.spanner.edges()[i].v);
  }
  EXPECT_EQ(rb.diagnostics.pass1_sketches_touched,
            rs.diagnostics.pass1_sketches_touched);
  EXPECT_EQ(rb.diagnostics.pass1_scan_failures,
            rs.diagnostics.pass1_scan_failures);
  EXPECT_EQ(rb.nominal_bytes, rs.nominal_bytes);
  EXPECT_EQ(rb.touched_bytes, rs.touched_bytes);
}

TEST(TwoPass, Pass1PagesMatchIndependentScalarReference) {
  // Golden pin of the storage refactor against the historical layout: an
  // independent reconstruction of the per-(u, r, j) SparseRecoverySketch
  // semantics -- same derive_seed chain (0x1000 + r * 1024 + j), same
  // hierarchy, same E_j level hash -- must reproduce the page cells
  // bit-for-bit.
  const Vertex n = 40;
  const unsigned k = 3;
  const std::uint64_t seed = 307;
  const auto updates = churny_updates(n, 311);

  TwoPassSpanner spanner(n, make_config(k, seed));
  spanner.absorb(updates);

  const ClusterHierarchy hierarchy = ClusterHierarchy::sample(n, k, seed);
  const std::size_t edge_levels = 2 * ceil_log2(std::uint64_t{n}) + 1;
  const KWiseHash edge_hash(8, derive_seed(seed, 0xe1));
  for (unsigned r = 1; r < k; ++r) {
    for (std::size_t j = 0; j < edge_levels; ++j) {
      SparseRecoveryConfig cfg;
      cfg.max_coord = num_pairs(n);
      cfg.budget = TwoPassConfig{}.pass1_budget;
      cfg.rows = TwoPassConfig{}.pass1_rows;
      cfg.seed = derive_seed(seed, 0x1000 + r * 1024 + j);
      const SparseRecoverySketch geometry(cfg);
      std::vector<OneSparseCell> cells(n * geometry.cell_count());
      std::vector<char> touched(n, 0);
      for (const EdgeUpdate& u : updates) {
        if (u.u == u.v) continue;
        const std::uint64_t coord = pair_id(u.u, u.v, n);
        // Historical per-level loop for the deepest surviving E_j level.
        const std::uint64_t h = edge_hash(coord);
        std::size_t jmax = 0;
        while (jmax + 1 < edge_levels && h < (kFieldPrime >> (jmax + 1))) {
          ++jmax;
        }
        if (j > jmax) continue;
        for (int side = 0; side < 2; ++side) {
          const Vertex keeper = side == 0 ? u.u : u.v;
          const Vertex other = side == 0 ? u.v : u.u;
          if (!hierarchy.contains(r, other)) continue;
          touched[keeper] = 1;
          geometry.update_state(
              {cells.data() + keeper * geometry.cell_count(),
               geometry.cell_count()},
              coord, u.delta);
        }
      }
      const auto page = spanner.pass1_cells(r, j);
      const bool page_touched =
          std::any_of(touched.begin(), touched.end(),
                      [](char c) { return c != 0; });
      if (!page_touched) {
        // Never-touched pages stay unmaterialized (the historical map had
        // no keys there).
        EXPECT_TRUE(page.empty() || cells_equal(page, cells));
        continue;
      }
      ASSERT_EQ(page.size(), cells.size()) << "page (r=" << r << ", j=" << j
                                           << ") not materialized";
      EXPECT_TRUE(cells_equal(page, cells))
          << "page (r=" << r << ", j=" << j << ") diverged from reference";
    }
  }
}

TEST(TwoPass, StagedIngestSharesKp12StagingShape) {
  // pass1_ingest consumed through the KP12 staging contract (caller-staged
  // entries + deduplicated coordinate slots) equals absorb() on the raw
  // updates.
  const Vertex n = 32;
  const auto updates = churny_updates(n, 401);
  const TwoPassConfig config = make_config(2, 409);

  TwoPassSpanner via_absorb(n, config);
  via_absorb.absorb(updates);

  TwoPassSpanner via_ingest(n, config);
  std::vector<SpannerBatchEntry> entries;
  std::vector<std::uint64_t> ucoords;
  for (const EdgeUpdate& u : updates) {
    if (u.u == u.v) continue;
    const std::uint64_t coord = pair_id(u.u, u.v, n);
    std::size_t slot = ucoords.size();
    for (std::size_t s = 0; s < ucoords.size(); ++s) {
      if (ucoords[s] == coord) {
        slot = s;
        break;
      }
    }
    if (slot == ucoords.size()) ucoords.push_back(coord);
    entries.push_back({coord, u.u, u.v, static_cast<std::uint32_t>(slot),
                       u.delta});
  }
  via_ingest.pass1_ingest(entries, ucoords);

  for (std::size_t j = 0; j < via_absorb.edge_sampling_levels(); ++j) {
    EXPECT_TRUE(cells_equal(via_absorb.pass1_cells(1, j),
                            via_ingest.pass1_cells(1, j)))
        << "page (r=1, j=" << j << ") diverged";
  }
}

// The row-shared ingest serves nested instances: instance i takes the
// prefix entries[0, prefixes[i]), and the prefixes never grow along the
// row.  An increasing prefix is a caller error in either pass.
[[nodiscard]] std::vector<SpannerBatchEntry> staged_entries(
    Vertex n, std::vector<std::uint64_t>& ucoords) {
  std::vector<SpannerBatchEntry> entries;
  for (Vertex v = 1; v < 5; ++v) {
    const std::uint64_t coord = pair_id(0, v, n);
    entries.push_back(
        {coord, 0, v, static_cast<std::uint32_t>(ucoords.size()), 1});
    ucoords.push_back(coord);
  }
  return entries;
}

TEST(TwoPass, Pass1IngestRowRejectsIncreasingPrefixes) {
  const Vertex n = 16;
  const auto geo = std::make_shared<SpannerGeometry>(n, make_config(2, 5));
  TwoPassSpanner a(geo);
  TwoPassSpanner b(geo);
  TwoPassSpanner* row[] = {&a, &b};
  std::vector<std::uint64_t> ucoords;
  const auto entries = staged_entries(n, ucoords);
  const std::size_t increasing[] = {2, 4};
  EXPECT_THROW(
      TwoPassSpanner::pass1_ingest_row(row, increasing, entries, ucoords),
      std::invalid_argument);
  const std::size_t nested[] = {4, 2};
  EXPECT_NO_THROW(
      TwoPassSpanner::pass1_ingest_row(row, nested, entries, ucoords));
}

TEST(TwoPass, Pass2IngestRowRejectsIncreasingPrefixes) {
  const Vertex n = 16;
  const auto geo = std::make_shared<SpannerGeometry>(n, make_config(2, 6));
  TwoPassSpanner a(geo);
  TwoPassSpanner b(geo);
  a.advance_pass();
  b.advance_pass();
  TwoPassSpanner* row[] = {&a, &b};
  std::vector<std::uint64_t> ucoords;
  const auto entries = staged_entries(n, ucoords);
  const std::size_t increasing[] = {1, 3};
  EXPECT_THROW(TwoPassSpanner::pass2_ingest_row(row, increasing, entries),
               std::invalid_argument);
  const std::size_t nested[] = {3, 3};
  EXPECT_NO_THROW(TwoPassSpanner::pass2_ingest_row(row, nested, entries));
}


// ---- pass-2 decode goldens ------------------------------------------------
//
// Pins everything pass 2's terminal decode produces -- the spanner edge
// list (as an FNV-1a digest over the sorted (u, v) pairs), both pass-2
// failure counters and touched_bytes --
// over fixed seeds, k in {2, 3}, an ER graph and a churned
// Barabasi-Albert graph.  The "tight" rows shrink the kv tables and payload
// budget so overloaded levels and unrecovered neighbors are pinned too.
// Any change to how the H^u_j banks decode must reproduce these exactly.

[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] std::uint64_t edge_digest(const Graph& g, bool weights) {
  std::vector<Edge> edges = g.edges();
  for (Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.u, a.v) < std::tie(b.u, b.v);
  });
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Edge& e : edges) {
    h = fnv1a(h, (std::uint64_t{e.u} << 32) | e.v);
    if (weights) h = fnv1a(h, std::bit_cast<std::uint64_t>(e.weight));
  }
  return h;
}

struct Pass2Golden {
  const char* family;  // "er" or "ba-churn"
  unsigned k;
  std::uint64_t seed;
  bool tight;
  std::size_t edges;
  std::uint64_t digest;
  std::size_t undecodable;
  std::size_t unrecovered;
  std::size_t touched_bytes;
};

[[nodiscard]] DynamicStream golden_stream(const std::string& family,
                                          std::uint64_t seed) {
  if (family == "er") {
    return DynamicStream::from_graph(erdos_renyi_gnm(128, 900, seed), seed + 1);
  }
  return DynamicStream::with_churn(barabasi_albert_graph(160, 4, seed), 320,
                                   seed + 1);
}

TEST(TwoPass, Pass2DecodeGoldensPinned) {
  const Pass2Golden goldens[] = {
      {"er", 2, 1, false, 816, 0xe2f37215e6b6458aULL, 0, 0, 11271752},
      {"er", 2, 2, false, 802, 0x0c5fca78bcda93a1ULL, 0, 0, 10098176},
      {"er", 3, 1, false, 588, 0x41da45b35ace1e2eULL, 0, 0, 7314184},
      {"er", 3, 2, false, 636, 0x5b2c764b0240b93fULL, 0, 0, 7705640},
      {"ba-churn", 2, 1, false, 583, 0x2754de46f2d92fc0ULL, 0, 0, 7847384},
      {"ba-churn", 2, 2, false, 606, 0x6558478b3967146fULL, 0, 0, 7547584},
      {"ba-churn", 3, 1, false, 529, 0x9006ae0155b8c684ULL, 0, 0, 6886024},
      {"ba-churn", 3, 2, false, 486, 0xc0badb5ba9a3f3a5ULL, 0, 0, 5428592},
      {"er", 2, 3, true, 809, 0xc910bc628bf2a17eULL, 2, 14, 2756560},
      {"ba-churn", 3, 3, true, 540, 0xb5310931e6e6ef70ULL, 0, 2, 2073568},
  };
  for (const Pass2Golden& want : goldens) {
    const DynamicStream stream = golden_stream(want.family, want.seed);
    TwoPassConfig config = make_config(want.k, 1000 + want.seed);
    if (want.tight) {
      config.table_capacity_factor = 0.1;
      config.table_payload_budget = 1;
    }
    TwoPassSpanner spanner(stream.n(), config);
    const TwoPassResult result = spanner.run(stream);
    const auto& d = result.diagnostics;
    const std::string what = std::string(want.family) +
                             " k=" + std::to_string(want.k) +
                             " seed=" + std::to_string(want.seed) +
                             (want.tight ? " tight" : "");
    EXPECT_EQ(result.spanner.m(), want.edges) << what;
    EXPECT_EQ(edge_digest(result.spanner, false), want.digest) << what;
    EXPECT_EQ(d.pass2_tables_undecodable, want.undecodable) << what;
    EXPECT_EQ(d.pass2_neighbors_unrecovered, want.unrecovered) << what;
    EXPECT_EQ(result.touched_bytes, want.touched_bytes) << what;
  }
}

TEST(TwoPass, Kp12DecodeGoldensPinned) {
  // The KP12 fleet decodes every instance through the same terminal decode;
  // pin the instance health count and the weighted sparsifier edges.  The
  // kv tables are shrunk so unhealthy instances occur and are pinned too.
  struct Kp12Golden {
    std::uint64_t seed;
    std::size_t unhealthy;
    std::size_t edges;
    std::uint64_t digest;
  };
  const Kp12Golden goldens[] = {{1, 13, 59, 0x5ecc264c4cb8dc34ULL},
                                {2, 10, 73, 0xf49980abb57997afULL}};
  for (const Kp12Golden& want : goldens) {
    const Graph g = erdos_renyi_gnm(48, 220, 300 + want.seed);
    const DynamicStream stream =
        DynamicStream::with_churn(g, 96, 400 + want.seed);
    Kp12Config config;
    config.k = 2;
    config.seed = want.seed;
    config.j_copies = 3;
    config.z_samples = 4;
    config.spanner.pass1_budget = 4;
    config.spanner.table_capacity_factor = 0.1;
    config.spanner.table_payload_budget = 1;
    config.ingest_workers = 1;
    config.decode_workers = 1;
    Kp12Sparsifier sparsifier(48, config);
    const Kp12Result result = sparsifier.run(stream);
    EXPECT_EQ(result.diagnostics.unhealthy_spanners, want.unhealthy)
        << "seed=" << want.seed;
    EXPECT_EQ(result.sparsifier.m(), want.edges) << "seed=" << want.seed;
    EXPECT_EQ(edge_digest(result.sparsifier, true), want.digest)
        << "seed=" << want.seed;
  }
}

}  // namespace
}  // namespace kw
