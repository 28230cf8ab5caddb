// BankGroup correctness pins:
//
//  1. Golden decode-equivalence: every ingest path (batched single-vertex
//     updates, batched pair updates incl. churn aggregation, group ranges)
//     produces cells BIT-IDENTICAL to the scalar per-level sampler
//     algorithm in tests/reference/bank_scalar_reference.h, on both of
//     ingest_staged's kernels -- the vertex-grouped scatter and the
//     per-update kernel it picks for very sparse batches and for more than
//     8 instances.
//  2. Merge semantics: associativity/commutativity and k-way shard/merge
//     identity on one-group banks (the single-bank case) and on multi-round
//     groups (exact cell equality, not just equal decodes).
//  3. Fusion: a G-group bank's cells equal G one-group banks with the same
//     seeds, so a round's cells never depend on the rounds fused with it.
//  4. Range checks: a bad entry anywhere in a batch throws before any cell
//     changes.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "reference/bank_scalar_reference.h"
#include "sketch/bank_group.h"
#include "util/prime_field.h"
#include "util/random.h"

namespace kw {
namespace {

constexpr std::uint64_t kMaxCoord = 1 << 14;

// Instance counts that drive each ingest kernel on the same updates: 4
// takes the vertex-grouped scatter whenever a batch has at least
// vertices/2 postings; 9 (more than the packed record's 8 level slots)
// always takes the per-update kernel.  (Other counts up to 8 take the
// vertex-grouped scatter's runtime-count kernel.)
constexpr std::size_t kKernelInstances[] = {4, 9};

// A one-group bank config (a single per-vertex bank).
[[nodiscard]] BankGroupConfig bank_config(std::uint64_t seed,
                                          std::size_t instances = 4) {
  BankGroupConfig c;
  c.max_coord = kMaxCoord;
  c.instances = instances;
  c.seeds = {seed};
  return c;
}

// Deletion-heavy per-vertex updates with a small surviving support.
[[nodiscard]] std::vector<BankVertexUpdate> make_updates(std::size_t vertices,
                                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<BankVertexUpdate> updates;
  for (std::size_t v = 0; v < vertices; ++v) {
    const auto vertex = static_cast<std::uint32_t>(v);
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t coord = rng.next_below(kMaxCoord);
      updates.push_back({vertex, coord, +2});
      updates.push_back({vertex, coord, -1});
    }
    for (int i = 0; i < 10; ++i) {  // churn: net zero
      const std::uint64_t coord = rng.next_below(kMaxCoord);
      updates.push_back({vertex, coord, +1});
      updates.push_back({vertex, coord, -1});
    }
  }
  return updates;
}

void expect_cells_equal(std::span<const OneSparseCell> a,
                        std::span<const OneSparseCell> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].count, b[i].count) << "cell " << i;
    EXPECT_EQ(a[i].coord_sum, b[i].coord_sum) << "cell " << i;
    EXPECT_EQ(a[i].fp1, b[i].fp1) << "cell " << i;
    EXPECT_EQ(a[i].fp2, b[i].fp2) << "cell " << i;
  }
}

void expect_matches_reference(const BankGroup& bank,
                              const BankScalarReference& reference) {
  for (std::size_t g = 0; g < bank.groups(); ++g) {
    for (std::size_t v = 0; v < bank.vertices(); ++v) {
      expect_cells_equal(bank.stripe(g, v), reference.stripe(g, v));
    }
  }
}

// ---- golden equivalence with the scalar reference -------------------------

TEST(SketchBankGolden, UpdateMatchesScalarReferenceCells) {
  for (const std::size_t instances : kKernelInstances) {
    SCOPED_TRACE(instances);
    BankGroup bank(3, bank_config(42, instances));
    BankScalarReference reference(bank);
    const auto updates = make_updates(3, 7);
    bank.ingest_updates(updates);
    for (const BankVertexUpdate& u : updates) {
      reference.update(0, u.vertex, u.coord, u.delta);
    }
    expect_matches_reference(bank, reference);
  }
}

TEST(SketchBankGolden, PairUpdateMatchesScalarReferenceCells) {
  // One-update batches: each is its own staging, aggregation and scatter.
  for (const std::size_t instances : kKernelInstances) {
    SCOPED_TRACE(instances);
    BankGroup bank(4, bank_config(43, instances));
    BankScalarReference reference(bank);
    Rng rng(9);
    for (int i = 0; i < 200; ++i) {
      BankPairUpdate u;
      u.lo = static_cast<std::uint32_t>(rng.next_below(4));
      u.hi = static_cast<std::uint32_t>((u.lo + 1 + rng.next_below(3)) % 4);
      u.coord = rng.next_below(kMaxCoord);
      u.delta = 1 + static_cast<std::int64_t>(rng.next_below(3));
      bank.ingest_pairs({&u, 1});
      reference.update_pair(0, 1, u.lo, u.hi, u.coord, u.delta);
    }
    expect_matches_reference(bank, reference);
  }
}

TEST(SketchBankGolden, BatchedIngestMatchesScalarReferenceCells) {
  for (const std::size_t instances : kKernelInstances) {
    SCOPED_TRACE(instances);
    BankGroup bank(8, bank_config(44, instances));
    BankScalarReference reference(bank);
    Rng rng(11);
    std::vector<BankPairUpdate> batch;
    for (int i = 0; i < 300; ++i) {
      BankPairUpdate u;
      u.lo = static_cast<std::uint32_t>(rng.next_below(8));
      u.hi = static_cast<std::uint32_t>((u.lo + 1 + rng.next_below(7)) % 8);
      u.coord = rng.next_below(kMaxCoord);
      u.delta = static_cast<std::int64_t>(rng.next_below(5)) - 2;  // incl. 0
      batch.push_back(u);
      reference.update_pair(0, 1, u.lo, u.hi, u.coord, u.delta);
    }
    bank.ingest_pairs(batch);
    expect_matches_reference(bank, reference);
  }
}

TEST(SketchBankGolden, DecodeMatchesScalarReferenceDecode) {
  // Decode goes through the same classify_cell for the bank's own stripes
  // and for external cell runs, so cell equality implies decode equality;
  // pin it end-to-end anyway on a single-support vector per vertex.
  for (const std::size_t instances : kKernelInstances) {
    SCOPED_TRACE(instances);
    BankGroup bank(5, bank_config(45, instances));
    BankScalarReference reference(bank);
    std::vector<BankVertexUpdate> updates;
    for (std::uint32_t v = 0; v < 5; ++v) {
      updates.push_back({v, 100 + v, 3});
      reference.update(0, v, 100 + v, 3);
    }
    bank.ingest_updates(updates);
    for (std::size_t v = 0; v < 5; ++v) {
      const auto rec = bank.decode(0, v);
      const auto ref = bank.decode_cells(0, reference.stripe(0, v));
      ASSERT_TRUE(rec.has_value());
      ASSERT_TRUE(ref.has_value());
      EXPECT_EQ(rec->coord, 100 + v);
      EXPECT_EQ(rec->value, 3);
      EXPECT_EQ(ref->coord, rec->coord);
      EXPECT_EQ(ref->value, rec->value);
    }
  }
}

// ---- merge semantics (one-group banks) ------------------------------------

TEST(SketchBankMerge, KWayShardMergeEqualsSequential) {
  constexpr std::size_t kParts = 5;
  const auto updates = make_updates(6, 31);
  BankGroup sequential(6, bank_config(47));
  sequential.ingest_updates(updates);
  std::vector<std::vector<BankVertexUpdate>> shards(kParts);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    shards[i % kParts].push_back(updates[i]);
  }
  BankGroup merged = sequential.clone_empty();
  for (const auto& shard : shards) {
    BankGroup part = sequential.clone_empty();
    part.ingest_updates(shard);
    merged.merge(part, 1);
  }
  for (std::size_t v = 0; v < 6; ++v) {
    expect_cells_equal(merged.stripe(0, v), sequential.stripe(0, v));
  }
}

TEST(SketchBankMerge, CommutativeAndAssociative) {
  const auto updates = make_updates(3, 37);
  std::vector<BankGroup> parts(3, BankGroup(3, bank_config(48)));
  for (std::size_t i = 0; i < updates.size(); ++i) {
    parts[i % 3].ingest_updates({&updates[i], 1});
  }

  BankGroup ab = parts[0];
  ab.merge(parts[1], 1);
  BankGroup ba = parts[1];
  ba.merge(parts[0], 1);
  BankGroup ab_c = ab;  // (a+b)+c
  ab_c.merge(parts[2], 1);
  BankGroup bc = parts[1];  // a+(b+c)
  bc.merge(parts[2], 1);
  BankGroup a_bc = parts[0];
  a_bc.merge(bc, 1);

  for (std::size_t v = 0; v < 3; ++v) {
    expect_cells_equal(ab.stripe(0, v), ba.stripe(0, v));
    expect_cells_equal(ab_c.stripe(0, v), a_bc.stripe(0, v));
  }
}

TEST(SketchBankMerge, SignedMergeCancelsExactly) {
  const auto updates = make_updates(2, 41);
  BankGroup a(2, bank_config(49));
  BankGroup b(2, bank_config(49));
  a.ingest_updates(updates);
  b.ingest_updates(updates);
  a.merge(b, -1);
  EXPECT_TRUE(a.is_zero());
}

TEST(SketchBankMerge, RejectsIncompatibleBanks) {
  BankGroup a(2, bank_config(50));
  BankGroup b(3, bank_config(50));
  BankGroup c(2, bank_config(51));
  EXPECT_THROW(a.merge(b, 1), std::invalid_argument);
  EXPECT_THROW(a.merge(c, 1), std::invalid_argument);
}

// ---- accumulate / decode_cells (the forest-builder surface) ---------------

TEST(SketchBank, AccumulateSumsStripesAndDecodes) {
  BankGroup bank(3, bank_config(52));
  // Edge {0,1} internal to the set {0,1}; edge with coord 77 leaves it.
  const BankPairUpdate internal{0, 1, 5, 1};  // cancels under the {0,1} sum
  const BankVertexUpdate boundary{0, 77, 1};  // survives
  bank.ingest_pairs({&internal, 1});
  bank.ingest_updates({&boundary, 1});
  std::vector<OneSparseCell> acc(bank.cells_per_stripe());
  bank.accumulate(acc, 0, 0, 1);
  bank.accumulate(acc, 0, 1, 1);
  const auto rec = bank.decode_cells(0, acc);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->coord, 77u);
  EXPECT_EQ(rec->value, 1);
}

TEST(SketchBank, RangeChecks) {
  // A bad entry after a good one throws before the good one lands.
  BankGroup bank(2, bank_config(53));
  const std::vector<BankVertexUpdate> bad_vertex = {{0, 1, 1}, {2, 0, 1}};
  const std::vector<BankVertexUpdate> bad_coord = {{0, 1, 1},
                                                   {0, kMaxCoord, 1}};
  const std::vector<BankPairUpdate> self_pair = {{0, 1, 1, 1}, {0, 0, 1, 1}};
  EXPECT_THROW(bank.ingest_updates(bad_vertex), std::out_of_range);
  EXPECT_THROW(bank.ingest_updates(bad_coord), std::out_of_range);
  EXPECT_THROW(bank.ingest_pairs(self_pair), std::out_of_range);
  EXPECT_TRUE(bank.is_zero());
}

// ---- multi-round groups ---------------------------------------------------

[[nodiscard]] std::vector<std::uint64_t> group_seeds(std::uint64_t base,
                                                     std::size_t rounds) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t g = 0; g < rounds; ++g) {
    seeds.push_back(derive_seed(base, 0x7700 + g));
  }
  return seeds;
}

[[nodiscard]] BankGroupConfig group_config(std::uint64_t base,
                                           std::size_t rounds,
                                           std::size_t instances = 4) {
  BankGroupConfig c;
  c.max_coord = kMaxCoord;
  c.instances = instances;
  c.seeds = group_seeds(base, rounds);
  return c;
}

[[nodiscard]] std::vector<BankPairUpdate> make_pair_updates(
    std::size_t vertices, std::size_t count, std::uint64_t seed,
    bool with_churn = false) {
  Rng rng(seed);
  std::vector<BankPairUpdate> batch;
  for (std::size_t i = 0; i < count; ++i) {
    BankPairUpdate u;
    u.lo = static_cast<std::uint32_t>(rng.next_below(vertices));
    u.hi = static_cast<std::uint32_t>(
        (u.lo + 1 + rng.next_below(vertices - 1)) % vertices);
    u.coord = rng.next_below(kMaxCoord);
    u.delta = static_cast<std::int64_t>(rng.next_below(5)) - 2;  // incl. 0
    batch.push_back(u);
    if (with_churn && rng.next_below(2) == 0) {
      BankPairUpdate del = u;  // same (endpoints, coord), opposite delta
      del.delta = -u.delta;
      batch.push_back(del);
    }
  }
  return batch;
}

TEST(BankGroupGolden, CellsMatchPerRoundSketchBanks) {
  // The fused group equals one one-group bank per round with the same
  // seeds, across batched pairs (with churn duplicates, so aggregation and
  // the net-zero drop are exercised), a one-update batch, a one-group range
  // and single-vertex updates.
  constexpr std::size_t kRounds = 5;
  constexpr std::size_t kVertices = 8;
  BankGroup group(kVertices, group_config(91, kRounds));
  std::vector<BankGroup> banks;
  for (std::size_t g = 0; g < kRounds; ++g) {
    banks.emplace_back(kVertices, bank_config(group_seeds(91, kRounds)[g]));
  }
  const auto batch = make_pair_updates(kVertices, 400, 17, /*churn=*/true);
  const BankPairUpdate single{1, 5, 123, 2};
  const BankPairUpdate ranged{3, 6, 99, -1};
  const auto vertex_updates = make_updates(kVertices, 18);
  group.ingest_pairs(batch);
  group.ingest_pairs({&single, 1});
  group.ingest_pairs({&ranged, 1}, 2, 1);
  group.ingest_updates(vertex_updates);
  for (std::size_t g = 0; g < kRounds; ++g) {
    banks[g].ingest_pairs(batch);
    banks[g].ingest_pairs({&single, 1});
    if (g == 2) banks[g].ingest_pairs({&ranged, 1});
    banks[g].ingest_updates(vertex_updates);
  }
  for (std::size_t g = 0; g < kRounds; ++g) {
    for (std::size_t v = 0; v < kVertices; ++v) {
      expect_cells_equal(group.stripe(g, v), banks[g].stripe(0, v));
    }
  }
}

TEST(BankGroupGolden, IngestUpdatesMatchesScalarUpdates) {
  constexpr std::size_t kRounds = 3;
  for (const std::size_t instances : kKernelInstances) {
    SCOPED_TRACE(instances);
    BankGroup fused(6, group_config(92, kRounds, instances));
    BankScalarReference reference(fused);
    Rng rng(23);
    std::vector<BankVertexUpdate> batch;
    for (int i = 0; i < 300; ++i) {
      BankVertexUpdate u;
      u.vertex = static_cast<std::uint32_t>(rng.next_below(6));
      u.coord = rng.next_below(kMaxCoord);
      u.delta = static_cast<std::int64_t>(rng.next_below(5)) - 2;
      batch.push_back(u);
      for (std::size_t g = 0; g < kRounds; ++g) {
        reference.update(g, u.vertex, u.coord, u.delta);
      }
    }
    fused.ingest_updates(batch);
    expect_matches_reference(fused, reference);
  }
}

TEST(BankGroupGolden, SparseFallbackMatchesScalarUpdates) {
  // A tiny batch relative to the vertex count (postings * 2 < vertices)
  // takes the per-update kernel; its cells must match the reference.
  constexpr std::size_t kRounds = 3;
  constexpr std::size_t kVertices = 4096;
  BankGroup fallback(kVertices, group_config(93, kRounds));
  BankScalarReference reference(fallback);
  const auto batch = make_pair_updates(kVertices, 40, 29);
  fallback.ingest_pairs(batch);
  for (const auto& u : batch) {
    reference.update_pair(0, kRounds, u.lo, u.hi, u.coord, u.delta);
  }
  expect_matches_reference(fallback, reference);
}

TEST(BankGroupGolden, GroupRangeMatchesScalarUpdates) {
  // ingest_pairs over a group range (how k-connectivity subtracts peeled
  // forests from one layer's rounds) writes only those groups, on both
  // kernels.
  constexpr std::size_t kRounds = 4;
  for (const std::size_t instances : kKernelInstances) {
    SCOPED_TRACE(instances);
    BankGroup group(6, group_config(102, kRounds, instances));
    BankScalarReference reference(group);
    const auto batch = make_pair_updates(6, 200, 53, /*churn=*/true);
    group.ingest_pairs(batch, 1, 2);
    for (const auto& u : batch) {
      reference.update_pair(1, 2, u.lo, u.hi, u.coord, u.delta);
    }
    expect_matches_reference(group, reference);
    for (std::size_t v = 0; v < 6; ++v) {
      EXPECT_TRUE(group.vertex_is_zero(0, v));
      EXPECT_TRUE(group.vertex_is_zero(3, v));
    }
  }
}

TEST(BankGroupGolden, DenseMultiBatchScatterMatchesScalar) {
  // Enough vertices that the vertex-grouped scatter's stripe prefetch runs
  // ahead of the vertex it is writing, and three dense churned batches into
  // the same bank, so every batch's per-instance suffix sweeps and bucket
  // resets land on top of the previous batch's cells.  Vertices 40..55 get
  // no postings in the second batch, a gap the scatter must skip while
  // still prefetching past it.  Instances 4 (the unrolled kernel), 3 (the
  // runtime-count kernel) and 9 (the per-update kernel) all must match the
  // scalar reference after every batch.
  constexpr std::size_t kRounds = 3;
  constexpr std::size_t kVertices = 96;
  constexpr std::uint32_t kGapFirst = 40;
  constexpr std::uint32_t kGapLast = 55;
  for (const std::size_t instances : {std::size_t{4}, std::size_t{3},
                                      std::size_t{9}}) {
    SCOPED_TRACE(instances);
    BankGroup bank(kVertices, group_config(103, kRounds, instances));
    BankScalarReference reference(bank);
    std::vector<BankPairUpdate> previous;
    for (std::uint64_t b = 0; b < 3; ++b) {
      SCOPED_TRACE(b);
      auto batch = make_pair_updates(kVertices, 600, 61 + b, /*churn=*/true);
      // Cross-batch churn: delete part of what the previous batch inserted.
      for (std::size_t i = 0; i < previous.size(); i += 3) {
        BankPairUpdate del = previous[i];
        del.delta = -del.delta;
        batch.push_back(del);
      }
      if (b == 1) {
        const auto in_gap = [&](std::uint32_t v) {
          return v >= kGapFirst && v <= kGapLast;
        };
        std::erase_if(batch, [&](const BankPairUpdate& u) {
          return in_gap(u.lo) || in_gap(u.hi);
        });
      }
      bank.ingest_pairs(batch);
      for (const auto& u : batch) {
        reference.update_pair(0, kRounds, u.lo, u.hi, u.coord, u.delta);
      }
      expect_matches_reference(bank, reference);
      previous = std::move(batch);
    }
  }
}

TEST(BankGroupMerge, KWayShardMergeEqualsSequential) {
  constexpr std::size_t kParts = 4;
  constexpr std::size_t kRounds = 4;
  const auto batch = make_pair_updates(6, 400, 31, /*churn=*/true);
  BankGroup sequential(6, group_config(94, kRounds));
  sequential.ingest_pairs(batch);
  std::vector<BankGroup> parts;
  for (std::size_t p = 0; p < kParts; ++p) {
    parts.push_back(sequential.clone_empty());
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    parts[i % kParts].ingest_pairs({&batch[i], 1});
  }
  BankGroup merged = parts[0].clone_empty();
  for (const BankGroup& p : parts) merged.merge(p, 1);
  for (std::size_t g = 0; g < kRounds; ++g) {
    for (std::size_t v = 0; v < 6; ++v) {
      expect_cells_equal(merged.stripe(g, v), sequential.stripe(g, v));
    }
  }
}

TEST(BankGroupMerge, CommutativeAssociativeAndSignedCancel) {
  constexpr std::size_t kRounds = 3;
  std::vector<BankGroup> parts;
  for (int p = 0; p < 3; ++p) {
    parts.emplace_back(5, group_config(95, kRounds));
    parts[p].ingest_pairs(make_pair_updates(5, 120, 41 + p));
  }
  BankGroup ab = parts[0];
  ab.merge(parts[1], 1);
  BankGroup ba = parts[1];
  ba.merge(parts[0], 1);
  BankGroup ab_c = ab;  // (a+b)+c
  ab_c.merge(parts[2], 1);
  BankGroup bc = parts[1];  // a+(b+c)
  bc.merge(parts[2], 1);
  BankGroup a_bc = parts[0];
  a_bc.merge(bc, 1);
  for (std::size_t g = 0; g < kRounds; ++g) {
    for (std::size_t v = 0; v < 5; ++v) {
      expect_cells_equal(ab.stripe(g, v), ba.stripe(g, v));
      expect_cells_equal(ab_c.stripe(g, v), a_bc.stripe(g, v));
    }
  }
  BankGroup neg = parts[0];
  neg.merge(parts[0], -1);
  EXPECT_TRUE(neg.is_zero());
}

TEST(BankGroupMerge, RejectsIncompatibleGroups) {
  BankGroup a(4, group_config(96, 2));
  BankGroup b(5, group_config(96, 2));   // vertex-count mismatch
  BankGroup c(4, group_config(97, 2));   // seed mismatch
  BankGroup d(4, group_config(96, 3));   // round-count mismatch
  EXPECT_THROW(a.merge(b, 1), std::invalid_argument);
  EXPECT_THROW(a.merge(c, 1), std::invalid_argument);
  EXPECT_THROW(a.merge(d, 1), std::invalid_argument);
}

TEST(BankGroup, ChurnedBatchCancelsToZero) {
  // Insert + delete of the same edges within one batch must leave the zero
  // group (the aggregation path drops them; the cells must agree with the
  // mathematical sum either way).
  BankGroup group(6, group_config(99, 2));
  std::vector<BankPairUpdate> batch;
  Rng rng(51);
  for (int i = 0; i < 100; ++i) {
    BankPairUpdate u;
    u.lo = static_cast<std::uint32_t>(rng.next_below(6));
    u.hi = static_cast<std::uint32_t>((u.lo + 1 + rng.next_below(5)) % 6);
    u.coord = rng.next_below(kMaxCoord);
    u.delta = 1 + static_cast<std::int64_t>(rng.next_below(3));
    batch.push_back(u);
    BankPairUpdate del = u;
    del.delta = -u.delta;
    batch.push_back(del);
  }
  group.ingest_pairs(batch);
  EXPECT_TRUE(group.is_zero());
}

TEST(BankGroup, RangeChecks) {
  BankGroup group(3, group_config(100, 2));
  const BankPairUpdate good{0, 1, 0, 1};
  const std::vector<BankPairUpdate> bad_hi = {good, {0, 3, 0, 1}};
  const std::vector<BankPairUpdate> self_pair = {good, {1, 1, 0, 1}};
  const std::vector<BankPairUpdate> bad_coord = {good, {0, 1, kMaxCoord, 1}};
  const std::vector<BankVertexUpdate> bad_vertex = {{0, 0, 1}, {3, 0, 1}};
  EXPECT_THROW(group.ingest_pairs(bad_hi), std::out_of_range);
  EXPECT_THROW(group.ingest_pairs(self_pair), std::out_of_range);
  EXPECT_THROW(group.ingest_pairs(bad_coord), std::out_of_range);
  EXPECT_THROW(group.ingest_updates(bad_vertex), std::out_of_range);
  EXPECT_THROW(group.ingest_pairs({&good, 1}, 2, 1), std::out_of_range);
  EXPECT_THROW(group.ingest_pairs({&good, 1}, 1, 2), std::out_of_range);
  EXPECT_TRUE(group.is_zero());
}

TEST(BankGroup, MultiplicityOverflowThrows) {
  // Two maximal deltas on one (endpoints, coordinate) overflow the staged
  // aggregate; the batch is refused instead of wrapping.
  BankGroup group(3, group_config(101, 2));
  BankPairUpdate u;
  u.lo = 0;
  u.hi = 1;
  u.coord = 5;
  u.delta = std::numeric_limits<std::int64_t>::max();
  const std::vector<BankPairUpdate> batch = {u, u};
  EXPECT_THROW(group.ingest_pairs(batch), std::overflow_error);
}

// ---- deepest-level threshold vs the per-level loop ------------------------

TEST(SketchBank, DeepestLevelMatchesSubsampleLoop) {
  // KWiseHash::deepest_level(h) must agree with the largest j for which the
  // per-level condition (j == 0 || h < p >> j) holds, for adversarial h
  // around every power-of-two boundary.
  std::vector<std::uint64_t> probes = {0, 1, 2, 3};
  for (int bit = 2; bit < 61; ++bit) {
    const std::uint64_t p2 = 1ULL << bit;
    probes.push_back(p2 - 2);
    probes.push_back(p2 - 1);
    probes.push_back(p2);
    probes.push_back(p2 + 1);
  }
  probes.push_back(kFieldPrime - 1);
  for (const std::uint64_t h : probes) {
    if (h >= kFieldPrime) continue;
    std::uint64_t expected = 0;
    for (std::uint64_t j = 1; j < 64; ++j) {
      if (h >= (kFieldPrime >> j)) break;
      expected = j;
    }
    EXPECT_EQ(KWiseHash::deepest_level(h), expected) << "h=" << h;
  }
}

}  // namespace
}  // namespace kw
