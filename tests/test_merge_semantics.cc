// Merge semantics of the linear sketch layer (satellite of the StreamEngine
// redesign): sharded ingestion relies on sketch addition being associative
// and commutative, and on a k-way shard/merge reproducing the sequential
// sketch state exactly.  Each sketch type is checked by decoding, the only
// observable surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "sketch/linear_kv_sketch.h"
#include "sketch/bank_group.h"
#include "sketch/sparse_recovery.h"
#include "util/random.h"

namespace kw {
namespace {

struct Update {
  std::uint64_t coord;
  std::int64_t delta;
};

// A deletion-heavy update sequence with a small final support.
[[nodiscard]] std::vector<Update> make_updates(std::uint64_t max_coord,
                                               std::size_t final_support,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Update> updates;
  for (std::size_t i = 0; i < final_support; ++i) {
    const std::uint64_t coord = rng.next_below(max_coord);
    updates.push_back({coord, +2});
    updates.push_back({coord, -1});  // net +1
  }
  // Churn: inserted then fully deleted.
  for (std::size_t i = 0; i < 3 * final_support; ++i) {
    const std::uint64_t coord = rng.next_below(max_coord);
    updates.push_back({coord, +1});
    updates.push_back({coord, -1});
  }
  return updates;
}

// Applies updates[i] for i = shard mod parts to a fresh sketch.
template <class Sketch, class Config>
[[nodiscard]] std::vector<Sketch> shard(const Config& config,
                                        const std::vector<Update>& updates,
                                        std::size_t parts) {
  std::vector<Sketch> sketches(parts, Sketch(config));
  for (std::size_t i = 0; i < updates.size(); ++i) {
    sketches[i % parts].update(updates[i].coord, updates[i].delta);
  }
  return sketches;
}

constexpr std::uint64_t kMaxCoord = 1 << 14;
constexpr std::size_t kSupport = 6;
constexpr std::size_t kParts = 5;

// ---- SparseRecoverySketch -------------------------------------------------

[[nodiscard]] SparseRecoveryConfig sr_config(std::uint64_t seed) {
  SparseRecoveryConfig c;
  c.max_coord = kMaxCoord;
  c.budget = 8;
  c.rows = 4;
  c.seed = seed;
  return c;
}

void expect_same_decode(const SparseRecoverySketch& a,
                        const SparseRecoverySketch& b) {
  const auto da = a.decode();
  const auto db = b.decode();
  ASSERT_EQ(da.has_value(), db.has_value());
  ASSERT_TRUE(da.has_value());
  ASSERT_EQ(da->size(), db->size());
  for (std::size_t i = 0; i < da->size(); ++i) {
    EXPECT_EQ((*da)[i].coord, (*db)[i].coord);
    EXPECT_EQ((*da)[i].value, (*db)[i].value);
  }
}

TEST(MergeSemantics, SparseRecoveryShardMergeEqualsSequential) {
  const auto updates = make_updates(kMaxCoord, kSupport, 11);
  SparseRecoverySketch sequential(sr_config(3));
  for (const auto& u : updates) sequential.update(u.coord, u.delta);
  auto parts =
      shard<SparseRecoverySketch>(sr_config(3), updates, kParts);
  SparseRecoverySketch merged = parts[0];
  for (std::size_t p = 1; p < kParts; ++p) merged.merge(parts[p], 1);
  expect_same_decode(merged, sequential);
}

TEST(MergeSemantics, SparseRecoveryCommutativeAndAssociative) {
  const auto updates = make_updates(kMaxCoord, kSupport, 13);
  auto parts = shard<SparseRecoverySketch>(sr_config(5), updates, 3);

  SparseRecoverySketch ab = parts[0];
  ab.merge(parts[1], 1);
  SparseRecoverySketch ba = parts[1];
  ba.merge(parts[0], 1);
  SparseRecoverySketch ab_c = ab;  // (a+b)+c
  ab_c.merge(parts[2], 1);
  SparseRecoverySketch bc = parts[1];  // a+(b+c)
  bc.merge(parts[2], 1);
  SparseRecoverySketch a_bc = parts[0];
  a_bc.merge(bc, 1);

  expect_same_decode(ab, ba);
  expect_same_decode(ab_c, a_bc);
}

// ---- L0 sampler (a one-vertex, one-group BankGroup) ----------------------

[[nodiscard]] BankGroup l0_sampler(std::uint64_t seed) {
  BankGroupConfig c;
  c.max_coord = kMaxCoord;
  c.instances = 6;
  c.seeds = {seed};
  return BankGroup(1, c);
}

// Applies updates[i] for i = shard mod parts to a fresh sampler, one
// update per batch.
[[nodiscard]] std::vector<BankGroup> shard_l0(
    std::uint64_t seed, const std::vector<Update>& updates,
    std::size_t parts) {
  std::vector<BankGroup> samplers(parts, l0_sampler(seed));
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const BankVertexUpdate u{0, updates[i].coord, updates[i].delta};
    samplers[i % parts].ingest_updates({&u, 1});
  }
  return samplers;
}

void expect_same_decode(const BankGroup& a, const BankGroup& b) {
  const auto da = a.decode(0, 0);
  const auto db = b.decode(0, 0);
  ASSERT_EQ(da.has_value(), db.has_value());
  if (da.has_value()) {
    EXPECT_EQ(da->coord, db->coord);
    EXPECT_EQ(da->value, db->value);
  }
}

TEST(MergeSemantics, L0SamplerShardMergeEqualsSequential) {
  const auto updates = make_updates(kMaxCoord, kSupport, 17);
  BankGroup sequential = l0_sampler(7);
  std::vector<BankVertexUpdate> batch;
  for (const auto& u : updates) batch.push_back({0, u.coord, u.delta});
  sequential.ingest_updates(batch);
  auto parts = shard_l0(7, updates, kParts);
  BankGroup merged = parts[0];
  for (std::size_t p = 1; p < kParts; ++p) merged.merge(parts[p], 1);
  expect_same_decode(merged, sequential);
  EXPECT_TRUE(merged.decode(0, 0).has_value());
}

TEST(MergeSemantics, L0SamplerCommutativeAndAssociative) {
  const auto updates = make_updates(kMaxCoord, kSupport, 19);
  auto parts = shard_l0(9, updates, 3);

  BankGroup ab = parts[0];
  ab.merge(parts[1], 1);
  BankGroup ba = parts[1];
  ba.merge(parts[0], 1);
  BankGroup ab_c = ab;
  ab_c.merge(parts[2], 1);
  BankGroup bc = parts[1];
  bc.merge(parts[2], 1);
  BankGroup a_bc = parts[0];
  a_bc.merge(bc, 1);

  expect_same_decode(ab, ba);
  expect_same_decode(ab_c, a_bc);
}

// ---- KvTableBank ----------------------------------------------------------
//
// Run at one level (MultipassSpanner's per-vertex table) and at several (a
// two-pass terminal's H^u_j row); updates land on levels 0..key % levels,
// and every level's decode must agree.

constexpr std::size_t kKvLevelCounts[] = {1, 4};

struct KvUpdate {
  std::uint64_t key;
  std::int64_t key_delta;
  std::uint64_t payload_coord;
  std::int64_t payload_delta;
};

[[nodiscard]] LinearKvConfig kv_config(std::uint64_t seed) {
  LinearKvConfig c;
  c.max_key = 256;
  c.max_payload_coord = kMaxCoord;
  c.capacity = 8;
  c.seed = seed;
  return c;
}

[[nodiscard]] std::vector<KvUpdate> make_kv_updates(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<KvUpdate> updates;
  for (std::size_t k = 0; k < 5; ++k) {
    const std::uint64_t key = rng.next_below(256);
    for (std::size_t i = 0; i < 3; ++i) {
      updates.push_back({key, +1, rng.next_below(kMaxCoord), +1});
    }
  }
  // Churned key: net zero everywhere, must vanish from the decode.
  const std::uint64_t ghost = 7;
  const std::uint64_t coord = 99;
  updates.push_back({ghost, +1, coord, +1});
  updates.push_back({ghost, -1, coord, -1});
  return updates;
}

void put(KvTableBank& bank, const KvUpdate& u) {
  bank.update(u.key, u.key_delta, u.payload_coord, u.payload_delta,
              u.key % bank.levels());
}

[[nodiscard]] std::vector<std::optional<std::vector<KvEntry>>> decode_all(
    const KvTableBank& bank) {
  std::vector<std::optional<std::vector<KvEntry>>> levels(bank.levels());
  (void)bank.decode_levels(
      [&](std::size_t j, const std::optional<std::vector<KvEntry>>& got) {
        levels[j] = got;
      });
  return levels;
}

void expect_same_decode(const KvTableBank& a, const KvTableBank& b) {
  const auto la = decode_all(a);
  const auto lb = decode_all(b);
  ASSERT_EQ(la.size(), lb.size());
  for (std::size_t level = 0; level < la.size(); ++level) {
    const auto& da = la[level];
    const auto& db = lb[level];
    ASSERT_EQ(da.has_value(), db.has_value()) << "level " << level;
    ASSERT_TRUE(da.has_value()) << "level " << level;
    ASSERT_EQ(da->size(), db->size()) << "level " << level;
    for (std::size_t i = 0; i < da->size(); ++i) {
      EXPECT_EQ((*da)[i].key, (*db)[i].key);
      EXPECT_EQ((*da)[i].key_count, (*db)[i].key_count);
      const auto pa = a.decode_payload((*da)[i]);
      const auto pb = b.decode_payload((*db)[i]);
      ASSERT_EQ(pa.has_value(), pb.has_value());
      if (!pa.has_value()) continue;
      ASSERT_EQ(pa->size(), pb->size());
      for (std::size_t j = 0; j < pa->size(); ++j) {
        EXPECT_EQ((*pa)[j].coord, (*pb)[j].coord);
        EXPECT_EQ((*pa)[j].value, (*pb)[j].value);
      }
    }
  }
}

TEST(MergeSemantics, LinearKvShardMergeEqualsSequential) {
  const auto updates = make_kv_updates(31);
  for (const std::size_t levels : kKvLevelCounts) {
    KvTableBank sequential(kv_config(15), levels);
    for (const auto& u : updates) put(sequential, u);
    std::vector<KvTableBank> parts(kParts, KvTableBank(kv_config(15), levels));
    for (std::size_t i = 0; i < updates.size(); ++i) {
      put(parts[i % kParts], updates[i]);
    }
    KvTableBank merged = parts[0];
    for (std::size_t p = 1; p < kParts; ++p) merged.merge(parts[p], 1);
    expect_same_decode(merged, sequential);
  }
}

TEST(MergeSemantics, LinearKvCommutativeAndAssociative) {
  const auto updates = make_kv_updates(37);
  for (const std::size_t levels : kKvLevelCounts) {
    std::vector<KvTableBank> parts(3, KvTableBank(kv_config(17), levels));
    for (std::size_t i = 0; i < updates.size(); ++i) {
      put(parts[i % 3], updates[i]);
    }

    KvTableBank ab = parts[0];
    ab.merge(parts[1], 1);
    KvTableBank ba = parts[1];
    ba.merge(parts[0], 1);
    KvTableBank ab_c = ab;
    ab_c.merge(parts[2], 1);
    KvTableBank bc = parts[1];
    bc.merge(parts[2], 1);
    KvTableBank a_bc = parts[0];
    a_bc.merge(bc, 1);

    expect_same_decode(ab, ba);
    expect_same_decode(ab_c, a_bc);
  }
}

}  // namespace
}  // namespace kw
