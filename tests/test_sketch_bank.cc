// SketchBank correctness pins (satellites of the flat hot-path refactor):
//
//  1. Golden decode-equivalence: the bank's fast paths (threshold level
//     computation, precomputed fingerprint terms, shared pair hashing,
//     batched ingest) produce cells BIT-IDENTICAL to the legacy scalar
//     sampler algorithm (per-level loop-and-branch, OneSparseCell::add per
//     cell), reproduced here from the bank's own randomness accessors.
//  2. Merge semantics on the bank: associativity/commutativity and k-way
//     shard/merge identity, mirroring tests/test_merge_semantics.cc at the
//     bank level (exact cell equality, not just equal decodes).
//  3. Sampler consistency: one-vertex banks (single-vector samplers) match
//     a multi-vertex bank fed the same per-vertex updates.
//  4. BankGroup (the fused multi-round layout): cells bit-identical to an
//     array of per-round SketchBanks with the same seeds across every
//     ingest path (batched pairs incl. churn aggregation, batched vertex
//     updates, scalar, sparse fallback), plus group-level merge
//     associativity/commutativity, k-way shard identity, and churn
//     cancellation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "sketch/sketch_bank.h"
#include "util/prime_field.h"
#include "util/random.h"

namespace kw {
namespace {

constexpr std::uint64_t kMaxCoord = 1 << 14;

[[nodiscard]] SketchBankConfig bank_config(std::uint64_t seed,
                                           std::size_t instances = 4) {
  SketchBankConfig c;
  c.max_coord = kMaxCoord;
  c.instances = instances;
  c.seed = seed;
  return c;
}

struct Update {
  std::uint32_t vertex;
  std::uint64_t coord;
  std::int64_t delta;
};

// Deletion-heavy per-vertex updates with a small surviving support.
[[nodiscard]] std::vector<Update> make_updates(std::size_t vertices,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Update> updates;
  for (std::size_t v = 0; v < vertices; ++v) {
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t coord = rng.next_below(kMaxCoord);
      updates.push_back({static_cast<std::uint32_t>(v), coord, +2});
      updates.push_back({static_cast<std::uint32_t>(v), coord, -1});
    }
    for (int i = 0; i < 10; ++i) {  // churn: net zero
      const std::uint64_t coord = rng.next_below(kMaxCoord);
      updates.push_back({static_cast<std::uint32_t>(v), coord, +1});
      updates.push_back({static_cast<std::uint32_t>(v), coord, -1});
    }
  }
  return updates;
}

// The pre-bank scalar sampler update algorithm, verbatim: per-instance
// hash evaluation, then a per-level loop that breaks at the first level the
// hash value fails to survive.
void scalar_reference_update(const SketchBank& geometry,
                             std::vector<OneSparseCell>& cells,
                             std::uint64_t coord, std::int64_t delta) {
  if (delta == 0) return;
  const std::size_t levels = geometry.levels();
  for (std::size_t inst = 0; inst < geometry.instances(); ++inst) {
    const std::uint64_t h = geometry.level_hash(inst)(coord);
    for (std::size_t j = 0; j < levels; ++j) {
      if (j > 0 && h >= (kFieldPrime >> j)) break;
      cells[inst * levels + j].add(coord, delta, geometry.basis());
    }
  }
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

// ---- golden equivalence with the scalar path ------------------------------

TEST(SketchBankGolden, UpdateMatchesScalarReferenceCells) {
  SketchBank bank(3, bank_config(42));
  std::vector<std::vector<OneSparseCell>> reference(
      3, std::vector<OneSparseCell>(bank.cells_per_vertex()));
  for (const Update& u : make_updates(3, 7)) {
    bank.update(u.vertex, u.coord, u.delta);
    scalar_reference_update(bank, reference[u.vertex], u.coord, u.delta);
  }
  for (std::size_t v = 0; v < 3; ++v) {
    expect_cells_equal(bank.stripe(v), reference[v]);
  }
}

TEST(SketchBankGolden, PairUpdateMatchesScalarReferenceCells) {
  SketchBank bank(4, bank_config(43));
  std::vector<std::vector<OneSparseCell>> reference(
      4, std::vector<OneSparseCell>(bank.cells_per_vertex()));
  Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const auto lo = static_cast<std::size_t>(rng.next_below(4));
    const auto hi = (lo + 1 + rng.next_below(3)) % 4;
    const std::uint64_t coord = rng.next_below(kMaxCoord);
    const std::int64_t delta = 1 + static_cast<std::int64_t>(rng.next_below(3));
    bank.update_pair(lo, hi, coord, delta);
    scalar_reference_update(bank, reference[lo], coord, delta);
    scalar_reference_update(bank, reference[hi], coord, -delta);
  }
  for (std::size_t v = 0; v < 4; ++v) {
    expect_cells_equal(bank.stripe(v), reference[v]);
  }
}

TEST(SketchBankGolden, BatchedIngestMatchesScalarReferenceCells) {
  SketchBank bank(8, bank_config(44));
  std::vector<std::vector<OneSparseCell>> reference(
      8, std::vector<OneSparseCell>(bank.cells_per_vertex()));
  Rng rng(11);
  std::vector<BankPairUpdate> batch;
  for (int i = 0; i < 300; ++i) {
    BankPairUpdate u;
    u.lo = static_cast<std::uint32_t>(rng.next_below(8));
    u.hi = static_cast<std::uint32_t>((u.lo + 1 + rng.next_below(7)) % 8);
    u.coord = rng.next_below(kMaxCoord);
    u.delta = static_cast<std::int64_t>(rng.next_below(5)) - 2;  // incl. 0
    batch.push_back(u);
    scalar_reference_update(bank, reference[u.lo], u.coord, u.delta);
    scalar_reference_update(bank, reference[u.hi], u.coord, -u.delta);
  }
  bank.ingest_pairs(batch);
  for (std::size_t v = 0; v < 8; ++v) {
    expect_cells_equal(bank.stripe(v), reference[v]);
  }
}

TEST(SketchBankGolden, DecodeMatchesScalarReferenceDecode) {
  // Decode goes through the same classify_cell as the legacy path, so cell
  // equality implies decode equality; pin it end-to-end anyway on a
  // single-support vector per vertex.
  SketchBank bank(5, bank_config(45));
  for (std::size_t v = 0; v < 5; ++v) {
    bank.update(v, 100 + v, 3);
  }
  for (std::size_t v = 0; v < 5; ++v) {
    const auto rec = bank.decode(v);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->coord, 100 + v);
    EXPECT_EQ(rec->value, 3);
  }
}

// ---- wrapper consistency --------------------------------------------------

TEST(SketchBank, WrapperSamplersMatchBankStripes) {
  const auto updates = make_updates(4, 21);
  SketchBank bank(4, bank_config(46));
  std::vector<SketchBank> samplers(4, SketchBank(1, bank_config(46)));
  for (const Update& u : updates) {
    bank.update(u.vertex, u.coord, u.delta);
    samplers[u.vertex].update(0, u.coord, u.delta);
  }
  for (std::size_t v = 0; v < 4; ++v) {
    expect_cells_equal(bank.stripe(v), samplers[v].stripe(0));
    const auto a = bank.decode(v);
    const auto b = samplers[v].decode(0);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->coord, b->coord);
      EXPECT_EQ(a->value, b->value);
    }
  }
}

// ---- merge semantics ------------------------------------------------------

TEST(SketchBankMerge, KWayShardMergeEqualsSequential) {
  constexpr std::size_t kParts = 5;
  const auto updates = make_updates(6, 31);
  SketchBank sequential(6, bank_config(47));
  std::vector<SketchBank> parts(kParts, SketchBank(6, bank_config(47)));
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    sequential.update(u.vertex, u.coord, u.delta);
    parts[i % kParts].update(u.vertex, u.coord, u.delta);
  }
  SketchBank merged = parts[0].clone_empty();
  for (const SketchBank& p : parts) merged.merge(p, 1);
  for (std::size_t v = 0; v < 6; ++v) {
    expect_cells_equal(merged.stripe(v), sequential.stripe(v));
  }
}

TEST(SketchBankMerge, CommutativeAndAssociative) {
  const auto updates = make_updates(3, 37);
  std::vector<SketchBank> parts(3, SketchBank(3, bank_config(48)));
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    parts[i % 3].update(u.vertex, u.coord, u.delta);
  }

  SketchBank ab = parts[0];
  ab.merge(parts[1], 1);
  SketchBank ba = parts[1];
  ba.merge(parts[0], 1);
  SketchBank ab_c = ab;  // (a+b)+c
  ab_c.merge(parts[2], 1);
  SketchBank bc = parts[1];  // a+(b+c)
  bc.merge(parts[2], 1);
  SketchBank a_bc = parts[0];
  a_bc.merge(bc, 1);

  for (std::size_t v = 0; v < 3; ++v) {
    expect_cells_equal(ab.stripe(v), ba.stripe(v));
    expect_cells_equal(ab_c.stripe(v), a_bc.stripe(v));
  }
}

TEST(SketchBankMerge, SignedMergeCancelsExactly) {
  const auto updates = make_updates(2, 41);
  SketchBank a(2, bank_config(49));
  SketchBank b(2, bank_config(49));
  for (const Update& u : updates) {
    a.update(u.vertex, u.coord, u.delta);
    b.update(u.vertex, u.coord, u.delta);
  }
  a.merge(b, -1);
  EXPECT_TRUE(a.is_zero());
}

TEST(SketchBankMerge, RejectsIncompatibleBanks) {
  SketchBank a(2, bank_config(50));
  SketchBank b(3, bank_config(50));
  SketchBank c(2, bank_config(51));
  EXPECT_THROW(a.merge(b, 1), std::invalid_argument);
  EXPECT_THROW(a.merge(c, 1), std::invalid_argument);
}

// ---- accumulate / decode_cells (the forest-builder surface) ---------------

TEST(SketchBank, AccumulateSumsStripesAndDecodes) {
  SketchBank bank(3, bank_config(52));
  // Edge {0,1} internal to the set {0,1}; edge with coord 77 leaves it.
  bank.update_pair(0, 1, 5, 1);  // cancels under accumulate over {0,1}
  bank.update(0, 77, 1);         // boundary contribution survives
  std::vector<OneSparseCell> acc(bank.cells_per_vertex());
  bank.accumulate(acc, 0, 1);
  bank.accumulate(acc, 1, 1);
  const auto rec = bank.decode_cells(acc);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->coord, 77u);
  EXPECT_EQ(rec->value, 1);
}

TEST(SketchBank, RangeChecks) {
  SketchBank bank(2, bank_config(53));
  EXPECT_THROW(bank.update(2, 0, 1), std::out_of_range);
  EXPECT_THROW(bank.update(0, kMaxCoord, 1), std::out_of_range);
  EXPECT_THROW(bank.update_pair(0, 0, 1, 1), std::out_of_range);
}

// ---- BankGroup: the fused multi-round layout ------------------------------
//
// The fused group must be bit-identical to an array of independent
// per-round SketchBanks with the same seeds -- the layout it replaced.

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
  constexpr std::size_t kRounds = 5;
  constexpr std::size_t kVertices = 8;
  BankGroup group(kVertices, group_config(91, kRounds));
  std::vector<SketchBank> banks;
  for (std::size_t g = 0; g < kRounds; ++g) {
    SketchBankConfig c = bank_config(group_seeds(91, kRounds)[g]);
    banks.emplace_back(kVertices, c);
  }
  // Mixed ingest: batched (with churn duplicates, so aggregation and the
  // net-zero drop are exercised), scalar pair updates, and single updates.
  const auto batch = make_pair_updates(kVertices, 400, 17, /*churn=*/true);
  group.ingest_pairs(batch);
  for (auto& bank : banks) bank.ingest_pairs(batch);
  group.update_pair(0, kRounds, 1, 5, 123, 2);
  group.update(2, 3, 99, -1);
  for (std::size_t g = 0; g < kRounds; ++g) {
    banks[g].update_pair(1, 5, 123, 2);
    if (g == 2) banks[g].update(3, 99, -1);
  }
  for (std::size_t g = 0; g < kRounds; ++g) {
    for (std::size_t v = 0; v < kVertices; ++v) {
      expect_cells_equal(group.stripe(g, v), banks[g].stripe(v));
    }
  }
}

TEST(BankGroupGolden, IngestUpdatesMatchesScalarUpdates) {
  constexpr std::size_t kRounds = 3;
  BankGroup fused(6, group_config(92, kRounds));
  BankGroup scalar(6, group_config(92, kRounds));
  Rng rng(23);
  std::vector<BankVertexUpdate> batch;
  for (int i = 0; i < 300; ++i) {
    BankVertexUpdate u;
    u.vertex = static_cast<std::uint32_t>(rng.next_below(6));
    u.coord = rng.next_below(kMaxCoord);
    u.delta = static_cast<std::int64_t>(rng.next_below(5)) - 2;
    batch.push_back(u);
  }
  fused.ingest_updates(batch);
  for (const auto& u : batch) {
    for (std::size_t g = 0; g < kRounds; ++g) {
      scalar.update(g, u.vertex, u.coord, u.delta);
    }
  }
  for (std::size_t g = 0; g < kRounds; ++g) {
    for (std::size_t v = 0; v < 6; ++v) {
      expect_cells_equal(fused.stripe(g, v), scalar.stripe(g, v));
    }
  }
}

TEST(BankGroupGolden, SparseFallbackMatchesScalarUpdates) {
  // A tiny batch relative to the vertex count takes ingest_pairs' scalar
  // fallback; its cells must match per-update update_pair exactly.
  constexpr std::size_t kRounds = 3;
  constexpr std::size_t kVertices = 4096;  // forces the sparse fallback
  BankGroup fallback(kVertices, group_config(93, kRounds));
  BankGroup scalar(kVertices, group_config(93, kRounds));
  const auto batch = make_pair_updates(kVertices, 40, 29);
  fallback.ingest_pairs(batch);
  for (const auto& u : batch) {
    if (u.delta == 0) continue;
    scalar.update_pair(0, kRounds, u.lo, u.hi, u.coord, u.delta);
  }
  for (std::size_t g = 0; g < kRounds; ++g) {
    for (const auto& u : batch) {
      expect_cells_equal(fallback.stripe(g, u.lo), scalar.stripe(g, u.lo));
      expect_cells_equal(fallback.stripe(g, u.hi), scalar.stripe(g, u.hi));
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

TEST(BankGroup, ViewDecodesLikeStandaloneBank) {
  constexpr std::size_t kRounds = 3;
  BankGroup group(5, group_config(98, kRounds));
  SketchBank bank(5, bank_config(group_seeds(98, kRounds)[1]));
  for (std::size_t v = 0; v < 5; ++v) {
    group.update(1, v, 200 + v, 3);
    bank.update(v, 200 + v, 3);
  }
  const BankGroup::View view = group.view(1);
  for (std::size_t v = 0; v < 5; ++v) {
    const auto a = view.decode(v);
    const auto b = bank.decode(v);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->coord, b->coord);
    EXPECT_EQ(a->value, b->value);
    expect_cells_equal(view.stripe(v), bank.stripe(v));
  }
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
  EXPECT_THROW(group.update(2, 0, 0, 1), std::out_of_range);   // bad group
  EXPECT_THROW(group.update(0, 3, 0, 1), std::out_of_range);   // bad vertex
  EXPECT_THROW(group.update(0, 0, kMaxCoord, 1), std::out_of_range);
  EXPECT_THROW(group.update_pair(0, 3, 0, 1, 0, 1), std::out_of_range);
  EXPECT_THROW(group.update_pair(0, 2, 1, 1, 0, 1), std::out_of_range);
  BankPairUpdate bad;
  bad.lo = 0;
  bad.hi = 0;
  bad.coord = 0;
  bad.delta = 1;
  EXPECT_THROW(group.ingest_pairs({&bad, 1}), std::out_of_range);
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
