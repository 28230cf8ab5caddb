#include "sketch/linear_kv_sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

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

TEST(LinearKv, EmptyDecodesEmpty) {
  const LinearKeyValueSketch sketch(make_config(16, 1));
  const auto decoded = sketch.decode();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
  EXPECT_TRUE(sketch.is_zero());
}

TEST(LinearKv, SingleKeySingleNeighbor) {
  LinearKeyValueSketch sketch(make_config(16, 2));
  sketch.update(/*key=*/42, 1, /*payload_coord=*/7, 1);
  const auto decoded = sketch.decode();
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].key, 42u);
  EXPECT_EQ((*decoded)[0].key_count, 1);
  const auto payload = sketch.decode_payload((*decoded)[0]);
  ASSERT_TRUE(payload.has_value());
  ASSERT_EQ(payload->size(), 1u);
  EXPECT_EQ((*payload)[0].coord, 7u);
  EXPECT_EQ((*payload)[0].value, 1);
}

TEST(LinearKv, ManyKeysRecovered) {
  LinearKeyValueSketch sketch(make_config(64, 3));
  std::map<std::uint64_t, std::uint64_t> truth;  // key -> single neighbor
  Rng rng(4);
  while (truth.size() < 50) {
    truth[rng.next_below(1 << 16)] = rng.next_below(1 << 16);
  }
  for (const auto& [key, nb] : truth) sketch.update(key, 1, nb, 1);
  const auto decoded = sketch.decode();
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), truth.size());
  for (const auto& entry : *decoded) {
    ASSERT_TRUE(truth.contains(entry.key));
    const auto payload = sketch.decode_payload(entry);
    ASSERT_TRUE(payload.has_value());
    ASSERT_EQ(payload->size(), 1u);
    EXPECT_EQ((*payload)[0].coord, truth[entry.key]);
  }
}

TEST(LinearKv, MultiNeighborPayloadWithinBudget) {
  // Payload peeling at full budget has a small inherent failure rate (the
  // IBLT stuck-configuration probability); callers retry across sampling
  // levels.  Statistically: decode must succeed for nearly all seeds and,
  // when it succeeds, must be exactly right.
  int successes = 0;
  constexpr int kTrials = 50;
  for (int trial = 0; trial < kTrials; ++trial) {
    LinearKeyValueSketch sketch(make_config(16, 500 + trial));
    sketch.update(9, 1, 100, 1);
    sketch.update(9, 1, 200, 1);
    sketch.update(9, 1, 300, 1);
    const auto decoded = sketch.decode();
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), 1u);
    EXPECT_EQ((*decoded)[0].key_count, 3);
    const auto payload = sketch.decode_payload((*decoded)[0]);
    if (!payload.has_value()) continue;
    std::set<std::uint64_t> coords;
    for (const auto& rec : *payload) coords.insert(rec.coord);
    ASSERT_EQ(coords, (std::set<std::uint64_t>{100, 200, 300}));
    ++successes;
  }
  EXPECT_GE(successes, kTrials - 4);
}

TEST(LinearKv, PayloadOverBudgetDetected) {
  LinearKeyValueSketch sketch(make_config(16, 6));
  for (std::uint64_t i = 0; i < 40; ++i) sketch.update(9, 1, 100 + i, 1);
  const auto decoded = sketch.decode();
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_FALSE(sketch.decode_payload((*decoded)[0]).has_value());
}

TEST(LinearKv, InsertDeleteCancelsEntirely) {
  LinearKeyValueSketch sketch(make_config(16, 7));
  sketch.update(5, 1, 50, 1);
  sketch.update(6, 1, 60, 1);
  sketch.update(5, -1, 50, -1);
  const auto decoded = sketch.decode();
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].key, 6u);
}

TEST(LinearKv, OverloadDetectedNotMisdecoded) {
  LinearKeyValueSketch sketch(make_config(8, 8));
  Rng rng(9);
  // 40x the capacity: decode must refuse.
  std::set<std::uint64_t> keys;
  while (keys.size() < 320) keys.insert(rng.next_below(1 << 16));
  for (const auto k : keys) sketch.update(k, 1, 1, 1);
  EXPECT_FALSE(sketch.decode().has_value());
}

TEST(LinearKv, MergeCombinesAcrossInstances) {
  const auto config = make_config(32, 10);
  LinearKeyValueSketch a(config);
  LinearKeyValueSketch b(config);
  a.update(1, 1, 10, 1);
  b.update(2, 1, 20, 1);
  b.update(1, 1, 11, 1);
  a.merge(b, 1);
  const auto decoded = a.decode();
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].key, 1u);
  EXPECT_EQ((*decoded)[0].key_count, 2);
  const auto payload = a.decode_payload((*decoded)[0]);
  ASSERT_TRUE(payload.has_value());
  EXPECT_EQ(payload->size(), 2u);
}

TEST(LinearKv, MergeSubtractGivesZero) {
  const auto config = make_config(32, 11);
  LinearKeyValueSketch a(config);
  LinearKeyValueSketch b(config);
  for (std::uint64_t k = 0; k < 20; ++k) {
    a.update(k, 1, k + 1000, 1);
    b.update(k, 1, k + 1000, 1);
  }
  a.merge(b, -1);
  EXPECT_TRUE(a.is_zero());
}

TEST(LinearKv, IncompatibleMergeThrows) {
  LinearKeyValueSketch a(make_config(8, 1));
  LinearKeyValueSketch b(make_config(8, 2));
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LinearKv, KeyOutOfRangeThrows) {
  LinearKeyValueSketch sketch(make_config(8, 1));
  EXPECT_THROW(sketch.update(1 << 16, 1, 0, 1), std::out_of_range);
  EXPECT_THROW(sketch.update_staged(1 << 16, 1, 0, 1), std::out_of_range);
}

TEST(LinearKv, StagedUpdateMatchesScalarUpdateExactly) {
  // update_staged() computes the key/payload fingerprint terms and payload
  // row buckets once and fans them out; the resulting sketch state must be
  // indistinguishable from per-cell update() -- same decode, same touched
  // cells (the erase-at-zero behavior included), subtract-merge to zero.
  Rng rng(777);
  LinearKeyValueSketch scalar(make_config(24, 9));
  LinearKeyValueSketch staged(make_config(24, 9));
  std::vector<std::tuple<std::uint64_t, std::int64_t, std::uint64_t,
                         std::int64_t>> ops;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t key = rng.next_below(40);
    const std::uint64_t coord = rng.next_below(64);
    const auto delta = static_cast<std::int64_t>(1 + rng.next_below(3));
    ops.emplace_back(key, delta, coord, delta);
  }
  // Interleave cancellations so some cells pass through exact zero.
  for (int i = 0; i < 400; i += 3) {
    auto [key, kd, coord, pd] = ops[i];
    ops.emplace_back(key, -kd, coord, -pd);
  }
  for (const auto& [key, kd, coord, pd] : ops) {
    scalar.update(key, kd, coord, pd);
    staged.update_staged(key, kd, coord, pd);
  }
  EXPECT_EQ(scalar.touched_bytes(), staged.touched_bytes());
  const auto ds = scalar.decode();
  const auto dt = staged.decode();
  ASSERT_TRUE(ds.has_value());
  ASSERT_TRUE(dt.has_value());
  ASSERT_EQ(ds->size(), dt->size());
  for (std::size_t i = 0; i < ds->size(); ++i) {
    EXPECT_EQ((*ds)[i].key, (*dt)[i].key);
    EXPECT_EQ((*ds)[i].key_count, (*dt)[i].key_count);
  }
  // Subtract-merge must cancel to exactly zero: cell-level bit identity.
  staged.merge(scalar, -1);
  EXPECT_TRUE(staged.is_zero());
}

// Load sweep: at or below capacity decode succeeds nearly always.
class KvLoad : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KvLoad, DecodableAtCapacity) {
  const std::size_t keys = GetParam();
  int success = 0;
  constexpr int kTrials = 10;
  for (int trial = 0; trial < kTrials; ++trial) {
    LinearKeyValueSketch sketch(make_config(keys, 500 + trial));
    Rng rng(trial);
    std::set<std::uint64_t> chosen;
    while (chosen.size() < keys) chosen.insert(rng.next_below(1 << 16));
    for (const auto k : chosen) sketch.update(k, 1, k % 1000, 1);
    const auto decoded = sketch.decode();
    if (!decoded.has_value()) continue;
    ASSERT_EQ(decoded->size(), keys);
    ++success;
  }
  EXPECT_GE(success, kTrials - 1);
}

INSTANTIATE_TEST_SUITE_P(CapacitySweep, KvLoad,
                         ::testing::Values(4, 16, 64, 256));

// ---- KvTableBank vs an independent per-level reference -------------------
//
// A KvTableBank stores level diffs and decodes every level in one
// deepest-first sweep; LinearKeyValueSketch keeps one plain table per level
// and decodes it on its own.  Fed the same updates -- level j of the bank
// sees exactly the updates with jmax >= j -- and built from the same seed
// chain (so they share key basis, payload geometry and table hashes), the
// two must decode identical KvEntry lists and fail on the same overloaded
// levels.  The touched-bytes count the sweep returns must equal the
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
