#include "sketch/linear_kv_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <optional>
#include <utility>
#include <vector>

#include "reference/linear_kv_reference.h"
#include "serialize/binary_io.h"
#include "util/random.h"

namespace kw {
namespace {

[[nodiscard]] LinearKvConfig make_config(std::size_t capacity,
                                         std::uint64_t seed) {
  LinearKvConfig c;
  c.max_key = 1 << 16;
  c.max_payload_coord = 1 << 16;
  c.capacity = capacity;
  c.tables = 3;
  c.load_factor = 0.5;
  c.payload_budget = 4;
  c.payload_rows = 3;
  c.seed = seed;
  return c;
}

// ---- Claim 11 on KvTableBank ---------------------------------------------
//
// Each property runs on a one-level bank (MultipassSpanner's per-vertex
// table) and on a four-level one (a two-pass terminal's H^u_j row).  put()
// writes an update to levels 0..key % levels, so level 0 holds every update
// and, with several levels, its value is a suffix sum over several stored
// rows; the properties are checked on level 0.

constexpr std::size_t kLevelCounts[] = {1, 4};

void put(KvTableBank& bank, std::uint64_t key, std::int64_t key_delta,
         std::uint64_t payload_coord, std::int64_t payload_delta) {
  bank.update(key, key_delta, payload_coord, payload_delta,
              key % bank.levels());
}

[[nodiscard]] std::optional<std::vector<KvEntry>> decode_level0(
    const KvTableBank& bank) {
  std::optional<std::vector<KvEntry>> level0;
  (void)bank.decode_levels(
      [&](std::size_t j, const std::optional<std::vector<KvEntry>>& got) {
        if (j == 0) level0 = got;
      });
  return level0;
}

TEST(LinearKv, EmptyDecodesEmpty) {
  for (const std::size_t levels : kLevelCounts) {
    const KvTableBank bank(make_config(16, 1), levels);
    const auto decoded = decode_level0(bank);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->empty());
    EXPECT_TRUE(bank.is_zero());
  }
}

TEST(LinearKv, SingleKeySingleNeighbor) {
  for (const std::size_t levels : kLevelCounts) {
    KvTableBank bank(make_config(16, 2), levels);
    put(bank, /*key=*/42, 1, /*payload_coord=*/7, 1);
    const auto decoded = decode_level0(bank);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), 1u);
    EXPECT_EQ((*decoded)[0].key, 42u);
    EXPECT_EQ((*decoded)[0].key_count, 1);
    const auto payload = bank.decode_payload((*decoded)[0]);
    ASSERT_TRUE(payload.has_value());
    ASSERT_EQ(payload->size(), 1u);
    EXPECT_EQ((*payload)[0].coord, 7u);
    EXPECT_EQ((*payload)[0].value, 1);
  }
}

TEST(LinearKv, ManyKeysRecovered) {
  std::map<std::uint64_t, std::uint64_t> truth;  // key -> single neighbor
  Rng rng(4);
  while (truth.size() < 50) {
    truth[rng.next_below(1 << 16)] = rng.next_below(1 << 16);
  }
  for (const std::size_t levels : kLevelCounts) {
    KvTableBank bank(make_config(64, 3), levels);
    for (const auto& [key, nb] : truth) put(bank, key, 1, nb, 1);
    const auto decoded = decode_level0(bank);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), truth.size());
    for (const auto& entry : *decoded) {
      ASSERT_TRUE(truth.contains(entry.key));
      const auto payload = bank.decode_payload(entry);
      ASSERT_TRUE(payload.has_value());
      ASSERT_EQ(payload->size(), 1u);
      EXPECT_EQ((*payload)[0].coord, truth[entry.key]);
    }
  }
}

TEST(LinearKv, MultiNeighborPayloadWithinBudget) {
  // Payload peeling at full budget has a small inherent failure rate (the
  // IBLT stuck-configuration probability); callers retry across sampling
  // levels.  Statistically: decode must succeed for nearly all seeds and,
  // when it succeeds, must be exactly right.
  for (const std::size_t levels : kLevelCounts) {
    int successes = 0;
    constexpr int kTrials = 50;
    for (int trial = 0; trial < kTrials; ++trial) {
      KvTableBank bank(make_config(16, 500 + trial), levels);
      put(bank, 9, 1, 100, 1);
      put(bank, 9, 1, 200, 1);
      put(bank, 9, 1, 300, 1);
      const auto decoded = decode_level0(bank);
      ASSERT_TRUE(decoded.has_value());
      ASSERT_EQ(decoded->size(), 1u);
      EXPECT_EQ((*decoded)[0].key_count, 3);
      const auto payload = bank.decode_payload((*decoded)[0]);
      if (!payload.has_value()) continue;
      std::set<std::uint64_t> coords;
      for (const auto& rec : *payload) coords.insert(rec.coord);
      ASSERT_EQ(coords, (std::set<std::uint64_t>{100, 200, 300}));
      ++successes;
    }
    EXPECT_GE(successes, kTrials - 4);
  }
}

TEST(LinearKv, PayloadOverBudgetDetected) {
  for (const std::size_t levels : kLevelCounts) {
    KvTableBank bank(make_config(16, 6), levels);
    for (std::uint64_t i = 0; i < 40; ++i) put(bank, 9, 1, 100 + i, 1);
    const auto decoded = decode_level0(bank);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), 1u);
    EXPECT_FALSE(bank.decode_payload((*decoded)[0]).has_value());
  }
}

TEST(LinearKv, InsertDeleteCancelsEntirely) {
  for (const std::size_t levels : kLevelCounts) {
    KvTableBank bank(make_config(16, 7), levels);
    put(bank, 5, 1, 50, 1);
    put(bank, 6, 1, 60, 1);
    put(bank, 5, -1, 50, -1);
    const auto decoded = decode_level0(bank);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), 1u);
    EXPECT_EQ((*decoded)[0].key, 6u);
  }
}

TEST(LinearKv, OverloadDetectedNotMisdecoded) {
  Rng rng(9);
  // 40x the capacity: decode must refuse.
  std::set<std::uint64_t> keys;
  while (keys.size() < 320) keys.insert(rng.next_below(1 << 16));
  for (const std::size_t levels : kLevelCounts) {
    KvTableBank bank(make_config(8, 8), levels);
    for (const auto k : keys) put(bank, k, 1, 1, 1);
    EXPECT_FALSE(decode_level0(bank).has_value());
  }
}

TEST(LinearKv, MergeCombinesAcrossInstances) {
  const auto config = make_config(32, 10);
  for (const std::size_t levels : kLevelCounts) {
    KvTableBank a(config, levels);
    KvTableBank b(config, levels);
    put(a, 1, 1, 10, 1);
    put(b, 2, 1, 20, 1);
    put(b, 1, 1, 11, 1);
    a.merge(b, 1);
    const auto decoded = decode_level0(a);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), 2u);
    EXPECT_EQ((*decoded)[0].key, 1u);
    EXPECT_EQ((*decoded)[0].key_count, 2);
    const auto payload = a.decode_payload((*decoded)[0]);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(payload->size(), 2u);
  }
}

TEST(LinearKv, MergeSubtractGivesZero) {
  const auto config = make_config(32, 11);
  for (const std::size_t levels : kLevelCounts) {
    KvTableBank a(config, levels);
    KvTableBank b(config, levels);
    for (std::uint64_t k = 0; k < 20; ++k) {
      put(a, k, 1, k + 1000, 1);
      put(b, k, 1, k + 1000, 1);
    }
    a.merge(b, -1);
    EXPECT_TRUE(a.is_zero());
  }
}

TEST(LinearKv, IncompatibleMergeThrows) {
  for (const std::size_t levels : kLevelCounts) {
    KvTableBank a(make_config(8, 1), levels);
    KvTableBank b(make_config(8, 2), levels);
    EXPECT_THROW(a.merge(b), std::invalid_argument);
  }
  KvTableBank one(make_config(8, 1), 1);
  KvTableBank four(make_config(8, 1), 4);
  EXPECT_THROW(one.merge(four), std::invalid_argument);
}

TEST(LinearKv, KeyOutOfRangeThrows) {
  for (const std::size_t levels : kLevelCounts) {
    KvTableBank bank(make_config(8, 1), levels);
    EXPECT_THROW(bank.update(1 << 16, 1, 0, 1, 0), std::out_of_range);
    EXPECT_THROW(bank.update(0, 1, 0, 1, levels), std::out_of_range);
  }
}

// Load sweep: at or below capacity decode succeeds nearly always.
class KvLoad : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KvLoad, DecodableAtCapacity) {
  const std::size_t keys = GetParam();
  for (const std::size_t levels : kLevelCounts) {
    int success = 0;
    constexpr int kTrials = 10;
    for (int trial = 0; trial < kTrials; ++trial) {
      KvTableBank bank(make_config(keys, 500 + trial), levels);
      Rng rng(trial);
      std::set<std::uint64_t> chosen;
      while (chosen.size() < keys) chosen.insert(rng.next_below(1 << 16));
      for (const auto k : chosen) put(bank, k, 1, k % 1000, 1);
      const auto decoded = decode_level0(bank);
      if (!decoded.has_value()) continue;
      ASSERT_EQ(decoded->size(), keys);
      ++success;
    }
    EXPECT_GE(success, kTrials - 1) << levels << " levels";
  }
}

INSTANTIATE_TEST_SUITE_P(CapacitySweep, KvLoad,
                         ::testing::Values(4, 16, 64, 256));

TEST(KvTableBank, RejectsSpacesBeyondThePowerTables) {
  // Keys and payload coordinates ride radix-256 power tables of
  // FingerprintBasis::kPowBytes (6) digits: exponents (coordinate + 1)
  // below 2^48.
  LinearKvConfig config = make_config(8, 1);
  config.max_payload_coord = (std::uint64_t{1} << 48) - 1;
  EXPECT_NO_THROW(KvTableBank(config, 1));
  config.max_payload_coord = std::uint64_t{1} << 48;
  EXPECT_THROW(KvTableBank(config, 1), std::invalid_argument);
  config = make_config(8, 1);
  config.max_key = std::uint64_t{1} << 48;
  EXPECT_THROW(KvTableBank(config, 1), std::invalid_argument);
}

// ---- KvTableBank vs an independent per-level reference -------------------
//
// A KvTableBank stores level diffs and decodes every level in one
// deepest-first sweep; the test-only LinearKeyValueSketch keeps one plain
// table per level and decodes it on its own.  Fed the same updates -- level
// j of the bank sees exactly the updates with jmax >= j -- and built from
// the same seed chain (so they share key basis, payload geometry and table
// hashes), the two must decode identical KvEntry lists and fail on the same
// overloaded levels.  The touched-bytes count the sweep returns must equal the
// reference's live cells summed over levels.

struct BankOp {
  std::uint64_t key;
  std::int64_t key_delta;
  std::uint64_t coord;
  std::int64_t payload_delta;
  std::size_t jmax;
};

constexpr std::size_t kDiffLevels = 6;

[[nodiscard]] LinearKvConfig diff_config(std::uint64_t seed) {
  LinearKvConfig c;
  c.max_key = 1 << 10;
  c.max_payload_coord = 1 << 8;
  c.capacity = 8;
  c.tables = 3;
  c.load_factor = 0.5;
  c.payload_budget = 2;
  c.payload_rows = 3;
  c.seed = seed;
  return c;
}

// Insertions over a key pool with geometric level caps, deletions of some
// earlier updates, and a few keys cancelled back to exactly zero.  Deeper
// levels hold fewer keys, so the shallow levels overload the tables and
// the deep ones decode.  `caps`, when given, restricts every jmax to that
// set, so the stored rows sit on a few levels separated by empty ones.
[[nodiscard]] std::vector<BankOp> random_bank_ops(
    std::uint64_t seed, const std::vector<std::size_t>& caps = {}) {
  Rng rng(seed);
  std::vector<BankOp> ops;
  std::vector<std::uint64_t> pool(60);
  for (auto& key : pool) key = rng.next_below(1 << 10);
  for (int i = 0; i < 200; ++i) {
    BankOp op;
    op.key = pool[rng.next_below(pool.size())];
    op.key_delta = static_cast<std::int64_t>(1 + rng.next_below(3));
    op.coord = rng.next_below(1 << 8);
    op.payload_delta = rng.next_below(2) == 0 ? 1 : -2;
    op.jmax = 0;
    while (op.jmax + 1 < kDiffLevels && rng.next_below(3) != 0) ++op.jmax;
    if (!caps.empty()) op.jmax = caps[op.jmax % caps.size()];
    ops.push_back(op);
  }
  const std::size_t inserted = ops.size();
  for (std::size_t i = 0; i < inserted; i += 4) {
    BankOp del = ops[i];
    del.key_delta = -del.key_delta;
    del.payload_delta = -del.payload_delta;
    ops.push_back(del);
  }
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t key = rng.next_below(1 << 10);
    std::size_t jmax = rng.next_below(kDiffLevels);
    if (!caps.empty()) jmax = caps[jmax % caps.size()];
    ops.push_back({key, 2, 7, 1, jmax});
    ops.push_back({key, -2, 7, -1, jmax});
  }
  return ops;
}

[[nodiscard]] bool same_entries(const std::vector<KvEntry>& a,
                                const std::vector<KvEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].key_count != b[i].key_count ||
        a[i].payload.size() != b[i].payload.size()) {
      return false;
    }
    for (std::size_t c = 0; c < a[i].payload.size(); ++c) {
      const OneSparseCell& x = a[i].payload[c];
      const OneSparseCell& y = b[i].payload[c];
      if (x.count != y.count || x.coord_sum != y.coord_sum ||
          x.fp1 != y.fp1 || x.fp2 != y.fp2) {
        return false;
      }
    }
  }
  return true;
}

// Decodes `bank` and checks every level against per-level references fed
// `ops`; returns {overloaded levels, nonempty decoded levels}.
std::pair<std::size_t, std::size_t> expect_matches_reference(
    const KvTableBank& bank, const LinearKvConfig& config,
    const std::vector<BankOp>& ops) {
  std::vector<LinearKeyValueSketch> refs(kDiffLevels,
                                         LinearKeyValueSketch(config));
  for (const BankOp& op : ops) {
    for (std::size_t j = 0; j <= op.jmax; ++j) {
      refs[j].update(op.key, op.key_delta, op.coord, op.payload_delta);
    }
  }
  std::vector<std::size_t> visited;
  std::size_t overloaded = 0;
  std::size_t nonempty = 0;
  const std::size_t touched = bank.decode_levels(
      [&](std::size_t j, const std::optional<std::vector<KvEntry>>& got) {
        visited.push_back(j);
        const auto want = refs[j].decode();
        ASSERT_EQ(got.has_value(), want.has_value()) << "level " << j;
        if (!got.has_value()) {
          ++overloaded;
          return;
        }
        if (!got->empty()) ++nonempty;
        EXPECT_TRUE(same_entries(*got, *want)) << "level " << j;
      });
  std::vector<std::size_t> deepest_first(kDiffLevels);
  for (std::size_t j = 0; j < kDiffLevels; ++j) {
    deepest_first[j] = kDiffLevels - 1 - j;
  }
  EXPECT_EQ(visited, deepest_first);
  std::size_t ref_touched = 0;
  for (const auto& ref : refs) {
    ref_touched += ref.touched_bytes() - sizeof(LinearKvConfig);
  }
  EXPECT_EQ(touched, ref_touched + sizeof(LinearKvConfig));
  return {overloaded, nonempty};
}

// Level sets for random_bank_ops: every level, and two with empty levels
// between the stored rows (decode_levels reuses the level above there).
const std::vector<std::vector<std::size_t>> kCapSets = {{}, {1, 4}, {0, 3, 5}};

TEST(KvTableBank, SweepDecodeMatchesPerLevelReference) {
  std::size_t overloaded = 0;
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const LinearKvConfig config = diff_config(100 + seed);
    const auto ops = random_bank_ops(seed, kCapSets[seed % kCapSets.size()]);
    // Private and fleet (staged scatter tables) geometries alike.
    for (const bool staged : {false, true}) {
      KvTableBank bank(KvBankGeometry::make({config}, staged), 0, kDiffLevels);
      for (const BankOp& op : ops) {
        bank.update(op.key, op.key_delta, op.coord, op.payload_delta,
                    op.jmax);
      }
      const auto [o, e] = expect_matches_reference(bank, config, ops);
      overloaded += o;
      nonempty += e;
    }
  }
  // The sweep must have exercised both outcomes.
  EXPECT_GT(overloaded, 0u);
  EXPECT_GT(nonempty, 0u);
}

TEST(KvTableBank, MergedBankSweepMatchesReference) {
  // Shards built separately and merged (one subtracted back out) decode
  // exactly like the reference fed the net update set.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const LinearKvConfig config = diff_config(200 + seed);
    const auto& caps = kCapSets[seed % kCapSets.size()];
    const auto ops = random_bank_ops(50 + seed, caps);
    const auto extra = random_bank_ops(90 + seed, caps);
    KvTableBank merged(config, kDiffLevels);
    KvTableBank second(config, kDiffLevels);
    KvTableBank removed(config, kDiffLevels);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const BankOp& op = ops[i];
      KvTableBank& into = i % 2 == 0 ? merged : second;
      into.update(op.key, op.key_delta, op.coord, op.payload_delta, op.jmax);
    }
    for (const BankOp& op : extra) {
      removed.update(op.key, op.key_delta, op.coord, op.payload_delta,
                     op.jmax);
    }
    merged.merge(second);
    merged.merge(removed);
    merged.merge(removed, -1);
    // A row written only by `deepest` and then subtracted back out: the
    // level keeps a stored all-zero row in every touched slot.
    KvTableBank deepest(config, kDiffLevels);
    deepest.update(5, 1, 9, 1, kDiffLevels - 1);
    merged.merge(deepest);
    merged.merge(deepest, -1);
    (void)expect_matches_reference(merged, config, ops);
  }
}

TEST(KvTableBank, RejectsMoreLevelsThanTheMask) {
  const LinearKvConfig config = diff_config(1);
  EXPECT_NO_THROW(KvTableBank(config, KvTableBank::kMaxLevels));
  EXPECT_THROW(KvTableBank(config, KvTableBank::kMaxLevels + 1),
               std::invalid_argument);
}

TEST(KvTableBank, StoresOnlyWrittenRows) {
  const LinearKvConfig config = diff_config(3);
  KvTableBank bank(config, kDiffLevels);
  const std::size_t row_bytes =
      config.tables * bank.geometry().cell_stride() * sizeof(OneSparseCell);
  EXPECT_EQ(bank.stored_bytes(), 0u);
  // One update to levels 0..4 writes one row per table, not five.
  bank.update(/*key=*/17, 1, /*payload_coord=*/3, 1, /*jmax=*/4);
  EXPECT_EQ(bank.stored_bytes(), row_bytes);
  // Another update at the same level adds into the stored rows.
  bank.update(17, 1, 5, 1, 4);
  EXPECT_EQ(bank.stored_bytes(), row_bytes);
  // A second level inserts a row below the first in the packed block.
  bank.update(17, -2, 3, -1, 1);
  EXPECT_EQ(bank.stored_bytes(), 2 * row_bytes);
  (void)expect_matches_reference(
      bank, config, {{17, 1, 3, 1, 4}, {17, 1, 5, 1, 4}, {17, -2, 3, -1, 1}});
}

[[nodiscard]] std::vector<unsigned char> saved(const KvTableBank& bank) {
  ser::Writer w;
  bank.serialize_state(w);
  return w.buffer();
}

TEST(KvTableBank, InconsistentStateFailsInsteadOfCycling) {
  // One key in three tables, with its table-1 cell zeroed on the wire: the
  // peel then finds the key alternately in tables 0 and 1 with opposite
  // counts, forever, unless the decode bounds its peels.
  const LinearKvConfig config = diff_config(5);
  KvTableBank bank(config, kDiffLevels);
  bank.update(/*key=*/9, 1, /*payload_coord=*/4, 1, /*jmax=*/0);
  std::vector<unsigned char> bytes = saved(bank);
  const std::size_t row_bytes =
      bank.geometry().cell_stride() * sizeof(OneSparseCell);
  // Header: entry count, levels, stride; each entry: slot id, depth, rows.
  const std::size_t table1_cells = 3 * 8 + (2 * 8 + row_bytes) + 2 * 8;
  std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(table1_cells),
              row_bytes, 0);
  ser::Reader r(bytes.data(), bytes.size());
  KvTableBank loaded(config, kDiffLevels);
  loaded.deserialize_state(r);
  std::size_t failed = 0;
  (void)loaded.decode_levels(
      [&](std::size_t j, const std::optional<std::vector<KvEntry>>& got) {
        if (j == 0 && !got.has_value()) ++failed;
      });
  EXPECT_EQ(failed, 1u);
}

TEST(KvTableBank, SaveLoadSaveIsByteIdentical) {
  const LinearKvConfig config = diff_config(4);
  // Levels 2 and 3 untouched between stored rows at 1 and 4.
  KvTableBank gap(config, kDiffLevels);
  gap.update(40, 1, 2, 1, 1);
  gap.update(40, 1, 6, 1, 4);
  gap.update(41, 3, 8, -1, 4);
  // The deepest row written and then cancelled: it stays on the wire as
  // zeros, so a reload must keep the entry's depth.
  KvTableBank cancelled(config, kDiffLevels);
  cancelled.update(50, 1, 2, 1, 2);
  cancelled.update(50, 2, 4, 1, 5);
  cancelled.update(50, -2, 4, -1, 5);
  // A subtract-merged bank: shared rows cancel, the rest keep their sign.
  KvTableBank merged(config, kDiffLevels);
  KvTableBank other(config, kDiffLevels);
  for (const BankOp& op : random_bank_ops(7)) {
    merged.update(op.key, op.key_delta, op.coord, op.payload_delta, op.jmax);
  }
  for (const BankOp& op : random_bank_ops(8)) {
    other.update(op.key, op.key_delta, op.coord, op.payload_delta, op.jmax);
  }
  merged.merge(other, -1);
  for (const KvTableBank* bank : {&gap, &cancelled, &merged}) {
    const std::vector<unsigned char> first = saved(*bank);
    ser::Reader r(first.data(), first.size());
    KvTableBank loaded(config, kDiffLevels);
    loaded.deserialize_state(r);
    EXPECT_EQ(saved(loaded), first);
    EXPECT_LE(loaded.stored_bytes(), bank->stored_bytes());
  }
}

}  // namespace
}  // namespace kw
