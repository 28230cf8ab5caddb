// Deterministic bit-flip sweep over every serialized envelope type: for
// each of the 13 serializable types, corrupt single bytes across the whole
// envelope (header, payload, trailing CRC) and demand ser::load_from_bytes
// throw SerializeError -- never parse garbage, never crash (CI runs this
// suite under ASan/UBSan).  The envelope reads and CRC-verifies the payload
// BEFORE parsing, and CRC-32 detects every burst error of <= 32 bits, so a
// single flipped byte anywhere must be caught with probability 1, not
// 1 - 2^-32.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "agm/k_connectivity.h"
#include "agm/neighborhood_sketch.h"
#include "agm/spanning_forest.h"
#include "core/additive_spanner.h"
#include "core/config.h"
#include "core/kp12_sparsifier.h"
#include "core/multipass_spanner.h"
#include "core/two_pass_spanner.h"
#include "engine/processors.h"
#include "graph/generators.h"
#include "serialize/serialize.h"
#include "sketch/bank_group.h"
#include "sketch/distinct_elements.h"
#include "sketch/sparse_recovery.h"
#include "stream/dynamic_stream.h"

namespace kw {
namespace {

[[nodiscard]] std::vector<EdgeUpdate> test_updates(Vertex n, std::size_t m,
                                                   std::size_t churn,
                                                   std::uint64_t seed) {
  const DynamicStream stream = DynamicStream::with_churn(
      erdos_renyi_gnm(n, m, seed), churn, seed + 1);
  std::vector<EdgeUpdate> updates;
  updates.reserve(stream.size());
  stream.replay([&updates](const EdgeUpdate& u) { updates.push_back(u); });
  return updates;
}

// Flips one byte at a time across the envelope and asserts every corruption
// is rejected.  Small envelopes are swept exhaustively; large ones at an
// even stride that still covers the 20-byte header, both payload ends, and
// the trailing CRC.  The flipped bit rotates with the position so all eight
// bit lanes are exercised.
template <typename T>
void sweep_bitflips(const T& original, T& dst) {
  const std::string bytes = ser::save_to_bytes(original);
  ASSERT_GT(bytes.size(), 24u);  // header + some payload + CRC

  // Budget chosen so the heaviest envelopes (multi-MB AGM sketch fleets,
  // where every rejected load still CRCs the whole byte string) stay a few
  // seconds under ASan; exhaustive below it.
  constexpr std::size_t kMaxPositions = 256;
  const std::size_t step =
      bytes.size() <= kMaxPositions ? 1 : bytes.size() / kMaxPositions;
  std::vector<std::size_t> positions;
  for (std::size_t pos = 0; pos < bytes.size(); pos += step) {
    positions.push_back(pos);
  }
  // Strided sweeps still pin the structurally meaningful bytes: the whole
  // header and the trailing CRC word.
  for (std::size_t pos = 0; pos < 20 && pos < bytes.size(); ++pos) {
    positions.push_back(pos);
  }
  for (std::size_t back = 1; back <= 4; ++back) {
    positions.push_back(bytes.size() - back);
  }

  for (const std::size_t pos : positions) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(
        static_cast<unsigned char>(bad[pos]) ^
        static_cast<unsigned char>(1u << (pos % 8)));
    EXPECT_THROW(ser::load_from_bytes(bad, dst), ser::SerializeError)
        << "flip at byte " << pos << " of " << bytes.size()
        << " was not rejected";
  }
  // The sweep never poisoned the destination: pristine bytes still load.
  EXPECT_NO_THROW(ser::load_from_bytes(bytes, dst));
}

TEST(BitflipSweep, SparseRecovery) {
  SparseRecoveryConfig config;
  config.max_coord = 1 << 14;
  config.budget = 12;
  config.rows = 4;
  config.seed = 21;
  SparseRecoverySketch a(config);
  for (std::uint64_t c = 0; c < 30; ++c) a.update((c * 37) % (1 << 14), 1);
  SparseRecoverySketch b(config);
  sweep_bitflips(a, b);
}

TEST(BitflipSweep, DistinctElements) {
  DistinctElementsConfig config;
  config.max_coord = 1 << 12;
  config.seed = 22;
  DistinctElementsSketch a(config);
  for (std::uint64_t c = 0; c < 200; ++c) a.update(c * 11 % 4096, 1);
  DistinctElementsSketch b(config);
  sweep_bitflips(a, b);
}

TEST(BitflipSweep, SketchBank) {
  // A standalone one-group bank (the single per-vertex bank).
  BankGroupConfig config;
  config.max_coord = 1 << 12;
  config.instances = 3;
  config.seeds = {24};
  BankGroup a(64, config);
  std::vector<BankVertexUpdate> updates;
  for (std::uint32_t v = 0; v < 64; ++v) {
    updates.push_back({v, v * 7 % 4096, 1});
  }
  a.ingest_updates(updates);
  BankGroup b(64, config);
  sweep_bitflips(a, b);
}

TEST(BitflipSweep, BankGroup) {
  BankGroupConfig config;
  config.max_coord = 1 << 12;
  config.instances = 2;
  config.seeds = {31, 32, 33};
  BankGroup a(48, config);
  std::vector<BankVertexUpdate> updates;
  for (std::uint32_t v = 0; v < 48; v += 3) {
    updates.push_back({v, v * 5 % 4096, 1});
  }
  a.ingest_updates(updates);
  BankGroup b(48, config);
  sweep_bitflips(a, b);
}

TEST(BitflipSweep, AgmSketch) {
  const std::vector<EdgeUpdate> updates = test_updates(40, 120, 40, 401);
  AgmConfig config;
  config.seed = 25;
  AgmGraphSketch a(40, config);
  a.absorb(updates);
  AgmGraphSketch b(40, config);
  sweep_bitflips(a, b);
}

TEST(BitflipSweep, SpanningForest) {
  const std::vector<EdgeUpdate> updates = test_updates(40, 140, 60, 402);
  AgmConfig config;
  config.seed = 26;
  SpanningForestProcessor a(40, config);
  a.absorb({updates.data(), updates.size() / 2});
  SpanningForestProcessor b(40, config);
  sweep_bitflips(a, b);
}

TEST(BitflipSweep, KConnectivity) {
  const std::vector<EdgeUpdate> updates = test_updates(36, 180, 60, 403);
  AgmConfig config;
  config.seed = 27;
  KConnectivitySketch a(36, 3, config);
  a.absorb({updates.data(), updates.size() / 2});
  KConnectivitySketch b(36, 3, config);
  sweep_bitflips(a, b);
}

TEST(BitflipSweep, TwoPassSpanner) {
  const std::vector<EdgeUpdate> updates = test_updates(32, 120, 40, 404);
  TwoPassConfig config;
  config.k = 2;
  config.seed = 28;
  TwoPassSpanner a(32, config);
  a.absorb({updates.data(), updates.size() / 2});
  TwoPassSpanner b(32, config);
  sweep_bitflips(a, b);
}

TEST(BitflipSweep, Kp12Sparsifier) {
  const std::vector<EdgeUpdate> updates = test_updates(32, 120, 40, 405);
  Kp12Config config;
  config.k = 2;
  config.seed = 29;
  config.j_copies = 2;
  config.z_samples = 2;
  config.t_levels = 3;
  Kp12Sparsifier a(32, config);
  a.absorb({updates.data(), updates.size() / 2});
  Kp12Sparsifier b(32, config);
  sweep_bitflips(a, b);
}

TEST(BitflipSweep, MultipassSpanner) {
  const std::vector<EdgeUpdate> updates = test_updates(32, 120, 40, 406);
  MultipassConfig config;
  config.k = 3;
  config.seed = 31;
  MultipassSpanner a(32, config);
  a.absorb({updates.data(), updates.size() / 2});
  MultipassSpanner b(32, config);
  sweep_bitflips(a, b);
}

TEST(BitflipSweep, AdditiveSpanner) {
  const std::vector<EdgeUpdate> updates = test_updates(48, 200, 60, 407);
  AdditiveConfig config;
  config.d = 4.0;
  config.seed = 32;
  AdditiveSpannerSketch a(48, config);
  a.absorb({updates.data(), updates.size() / 2});
  AdditiveSpannerSketch b(48, config);
  sweep_bitflips(a, b);
}

TEST(BitflipSweep, DemuxProcessor) {
  const std::vector<EdgeUpdate> updates = test_updates(40, 140, 40, 408);
  AgmConfig config;
  config.seed = 33;
  SpanningForestProcessor lane0(40, config);
  KConnectivitySketch lane1(40, 2, config);
  DemuxProcessor a({&lane0, &lane1},
                   [](const EdgeUpdate& u) { return u.u % 2; });
  a.absorb({updates.data(), updates.size()});

  SpanningForestProcessor fresh0(40, config);
  KConnectivitySketch fresh1(40, 2, config);
  DemuxProcessor b({&fresh0, &fresh1},
                   [](const EdgeUpdate& u) { return u.u % 2; });
  sweep_bitflips(a, b);
}

}  // namespace
}  // namespace kw
