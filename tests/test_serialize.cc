// The serialization subsystem: envelope integrity (magic/version/CRC/tag),
// byte-identical round trips for every serializable type, geometry
// validation on load, the k-shard merge-from-bytes protocol, and
// StreamEngine checkpoint/restore.
#include "serialize/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
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
#include "engine/stream_engine.h"
#include "graph/generators.h"
#include "sketch/bank_group.h"
#include "sketch/distinct_elements.h"
#include "sketch/sparse_recovery.h"
#include "stream/dynamic_stream.h"

namespace kw {
namespace {

[[nodiscard]] DynamicStream test_stream(Vertex n, std::size_t m,
                                        std::size_t churn,
                                        std::uint64_t seed) {
  return DynamicStream::with_churn(erdos_renyi_gnm(n, m, seed), churn,
                                   seed + 1);
}

[[nodiscard]] std::vector<EdgeUpdate> stream_updates(
    const DynamicStream& stream) {
  std::vector<EdgeUpdate> updates;
  updates.reserve(stream.size());
  stream.replay([&updates](const EdgeUpdate& u) { updates.push_back(u); });
  return updates;
}

[[nodiscard]] std::vector<std::tuple<Vertex, Vertex, double>> edge_list(
    const std::vector<Edge>& edges) {
  std::vector<std::tuple<Vertex, Vertex, double>> out;
  for (const Edge& e : edges) {
    out.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v), e.weight);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Round-trip into `fresh` (same-config, never-updated) and demand the
// reserialization be byte-identical: the strongest statement that no state
// was lost or invented.
template <typename T>
void expect_round_trip_identity(const T& original, T& fresh) {
  const std::string bytes = ser::save_to_bytes(original);
  ser::load_from_bytes(bytes, fresh);
  EXPECT_EQ(ser::save_to_bytes(fresh), bytes);
}

[[nodiscard]] Kp12Config small_kp12_config(std::uint64_t seed) {
  Kp12Config c;
  c.k = 2;
  c.seed = seed;
  c.j_copies = 2;
  c.z_samples = 2;
  c.t_levels = 3;
  return c;
}

// ---- envelope integrity ---------------------------------------------------

TEST(SerializeEnvelope, RejectsCorruption) {
  SparseRecoveryConfig config;
  config.max_coord = 1 << 12;
  config.seed = 7;
  SparseRecoverySketch sketch(config);
  for (std::uint64_t c = 0; c < 40; ++c) sketch.update(c * 17 % 4096, 1);
  const std::string bytes = ser::save_to_bytes(sketch);

  SparseRecoverySketch dst(config);
  // Truncation: cut inside the payload.
  EXPECT_THROW(ser::load_from_bytes(bytes.substr(0, bytes.size() / 2), dst),
               ser::SerializeError);
  // Truncation: cut inside the 20-byte header.
  EXPECT_THROW(ser::load_from_bytes(bytes.substr(0, 10), dst),
               ser::SerializeError);
  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] ^= 0x01;
    EXPECT_THROW(ser::load_from_bytes(bad, dst), ser::SerializeError);
  }
  // Unsupported format version.
  {
    std::string bad = bytes;
    bad[4] = 99;
    EXPECT_THROW(ser::load_from_bytes(bad, dst), ser::SerializeError);
  }
  // Flipped payload bit -> CRC failure.
  {
    std::string bad = bytes;
    bad[bytes.size() / 2] ^= 0x40;
    EXPECT_THROW(ser::load_from_bytes(bad, dst), ser::SerializeError);
  }
  // Intact bytes still load after all that.
  EXPECT_NO_THROW(ser::load_from_bytes(bytes, dst));
}

TEST(SerializeEnvelope, RejectsWrongType) {
  SparseRecoveryConfig config;
  config.max_coord = 1024;
  SparseRecoverySketch sketch(config);
  sketch.update(3, 1);
  const std::string bytes = ser::save_to_bytes(sketch);

  DistinctElementsConfig dconfig;
  dconfig.max_coord = 1024;
  DistinctElementsSketch other(dconfig);
  EXPECT_THROW(ser::load_from_bytes(bytes, other), ser::SerializeError);
}

TEST(SerializeEnvelope, RejectsGeometryMismatch) {
  SparseRecoveryConfig config;
  config.max_coord = 1024;
  config.seed = 5;
  SparseRecoverySketch sketch(config);
  sketch.update(3, 1);
  const std::string bytes = ser::save_to_bytes(sketch);

  SparseRecoveryConfig other = config;
  other.seed = 6;  // different sketching matrix: must refuse to mix
  SparseRecoverySketch dst(other);
  EXPECT_THROW(ser::load_from_bytes(bytes, dst), ser::SerializeError);
}

TEST(SerializeEnvelope, SparseAndDenseCellSections) {
  SparseRecoveryConfig config;
  config.max_coord = 1 << 16;
  config.budget = 8;
  config.rows = 4;
  config.seed = 9;

  // A couple of updates: nearly all cells zero -> sparse encoding, and the
  // payload is far smaller than the dense state.
  SparseRecoverySketch nearly_empty(config);
  nearly_empty.update(1, 1);
  ser::SerializeStats sparse_stats;
  const std::string small = ser::save_to_bytes(nearly_empty, &sparse_stats);
  EXPECT_GT(sparse_stats.cells_total, 0u);
  EXPECT_LT(sparse_stats.cells_nonzero * 2, sparse_stats.cells_total);
  bool saw_sparse = false;
  for (const auto& s : sparse_stats.sections) saw_sparse |= s.sparse;
  EXPECT_TRUE(saw_sparse);

  // Saturate the sketch: dense encoding takes over and the size approaches
  // cells * 32.
  SparseRecoverySketch full(config);
  for (std::uint64_t c = 0; c < (1 << 12); ++c) full.update(c, 1);
  ser::SerializeStats dense_stats;
  const std::string big = ser::save_to_bytes(full, &dense_stats);
  EXPECT_GT(big.size(), small.size());
  EXPECT_GT(dense_stats.cells_nonzero * 2, dense_stats.cells_total);
}

// ---- round trips: sketches ------------------------------------------------

TEST(SerializeRoundTrip, SparseRecovery) {
  SparseRecoveryConfig config;
  config.max_coord = 1 << 14;
  config.budget = 12;
  config.rows = 4;
  config.seed = 21;
  SparseRecoverySketch a(config);
  for (std::uint64_t c = 0; c < 30; ++c) a.update((c * 37) % (1 << 14), 1);
  for (std::uint64_t c = 0; c < 10; ++c) a.update((c * 37) % (1 << 14), -1);
  SparseRecoverySketch b(config);
  expect_round_trip_identity(a, b);
}

TEST(SerializeRoundTrip, DistinctElements) {
  DistinctElementsConfig config;
  config.max_coord = 1 << 12;
  config.seed = 22;
  DistinctElementsSketch a(config);
  for (std::uint64_t c = 0; c < 200; ++c) a.update(c * 11 % 4096, 1);
  DistinctElementsSketch b(config);
  expect_round_trip_identity(a, b);
}

TEST(SerializeRoundTrip, SketchBankAndBankGroup) {
  // A one-group bank (the single per-vertex bank) and a multi-round group.
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
  expect_round_trip_identity(a, b);

  BankGroupConfig gconfig;
  gconfig.max_coord = 1 << 12;
  gconfig.instances = 2;
  gconfig.seeds = {31, 32, 33};
  BankGroup ga(48, gconfig);
  updates.clear();
  for (std::uint32_t v = 0; v < 48; v += 3) {
    updates.push_back({v, v * 5 % 4096, 1});
  }
  ga.ingest_updates(updates);
  BankGroup gb(48, gconfig);
  expect_round_trip_identity(ga, gb);
}

TEST(SerializeRoundTrip, AgmSketch) {
  const DynamicStream stream = test_stream(40, 120, 40, 101);
  AgmConfig config;
  config.seed = 25;
  AgmGraphSketch a(40, config);
  a.absorb(stream_updates(stream));
  AgmGraphSketch b(40, config);
  expect_round_trip_identity(a, b);
}

// ---- round trips: processors ---------------------------------------------

TEST(SerializeRoundTrip, SpanningForestMidStreamAndFinished) {
  const DynamicStream stream = test_stream(40, 140, 60, 102);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  AgmConfig config;
  config.seed = 26;

  SpanningForestProcessor mid(40, config);
  mid.absorb({updates.data(), updates.size() / 2});
  SpanningForestProcessor fresh(40, config);
  expect_round_trip_identity(mid, fresh);

  // The restored sketch finishes to the same forest as the original.
  mid.absorb({updates.data() + updates.size() / 2,
              updates.size() - updates.size() / 2});
  fresh.absorb({updates.data() + updates.size() / 2,
                updates.size() - updates.size() / 2});
  mid.finish();
  fresh.finish();
  EXPECT_EQ(edge_list(mid.take_result().edges),
            edge_list(fresh.take_result().edges));
}

TEST(SerializeRoundTrip, KConnectivityMidStream) {
  const DynamicStream stream = test_stream(36, 180, 60, 103);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  AgmConfig config;
  config.seed = 27;
  KConnectivitySketch a(36, 3, config);
  a.absorb({updates.data(), updates.size() / 2});
  KConnectivitySketch b(36, 3, config);
  expect_round_trip_identity(a, b);
}

// ---- hostile payloads with valid CRCs -------------------------------------

constexpr std::size_t kEnvelopeHeader = 20;

[[nodiscard]] std::uint64_t payload_field(const std::string& bytes,
                                          std::size_t offset,
                                          std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= std::uint64_t{static_cast<unsigned char>(
                 bytes[kEnvelopeHeader + offset + i])}
             << (8 * i);
  }
  return value;
}

// Overwrites a little-endian payload field and recomputes the envelope CRC,
// so only the parser's own checks stand between the bytes and the object.
[[nodiscard]] std::string patch_payload(std::string bytes, std::size_t offset,
                                        std::size_t width,
                                        std::uint64_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[kEnvelopeHeader + offset + i] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  const std::size_t crc_at = bytes.size() - 4;
  const std::uint32_t crc = ser::crc32(
      reinterpret_cast<const unsigned char*>(bytes.data()), crc_at);
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[crc_at + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return bytes;
}

TEST(SerializeHostile, KConnectivityResultHeaderRejected) {
  // A finished sketch saves its certificate.  A certificate vertex count of
  // 2^32-1, an edge count past the payload, or an edge endpoint past n must
  // throw SerializeError before the O(n) adjacency or the O(m) edge list is
  // sized from it.
  constexpr Vertex kN = 36;
  const std::vector<EdgeUpdate> updates =
      stream_updates(test_stream(kN, 180, 60, 103));
  AgmConfig config;
  config.seed = 27;
  KConnectivitySketch finished(kN, 3, config);
  finished.absorb(updates);
  finished.finish();
  const std::string bytes = ser::save_to_bytes(finished);
  const KConnectivityResult result = finished.take_result();
  ASSERT_FALSE(result.forests.empty());
  ASSERT_FALSE(result.forests[0].empty());
  ASSERT_GT(result.certificate.m(), 0u);

  // Payload: 36 header bytes, the finished and has-result flags, the forest
  // count, each forest's length-prefixed 16-byte edges, then the
  // certificate's u32 n, u64 m and edges.
  const std::size_t first_forest_edge = 36 + 2 + 8 + 8;
  std::size_t cert = 36 + 2 + 8;
  for (const std::vector<Edge>& forest : result.forests) {
    cert += 8 + 16 * forest.size();
  }
  ASSERT_EQ(payload_field(bytes, cert, 4), kN);
  ASSERT_EQ(payload_field(bytes, cert + 4, 8), result.certificate.m());

  const auto expect_rejected = [&](const std::string& patched) {
    KConnectivitySketch fresh(kN, 3, config);
    EXPECT_THROW(ser::load_from_bytes(patched, fresh), ser::SerializeError);
  };
  expect_rejected(patch_payload(bytes, cert, 4, 0xFFFFFFFFu));
  expect_rejected(patch_payload(bytes, cert + 4, 8, ~std::uint64_t{0}));
  expect_rejected(patch_payload(bytes, cert + 4, 8, std::uint64_t{1} << 60));
  expect_rejected(patch_payload(bytes, cert + 12, 4, kN));
  expect_rejected(patch_payload(bytes, first_forest_edge + 4, 4, 0xFFFFFFFFu));

  KConnectivitySketch fresh(kN, 3, config);
  ser::load_from_bytes(bytes, fresh);  // the unpatched bytes still load
  EXPECT_EQ(ser::save_to_bytes(fresh), bytes);
}

TEST(SerializeRoundTrip, TwoPassSpannerBothPhases) {
  const DynamicStream stream = test_stream(32, 120, 40, 104);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  TwoPassConfig config;
  config.k = 2;
  config.seed = 28;

  // Mid pass 1.
  TwoPassSpanner pass1(32, config);
  pass1.absorb({updates.data(), updates.size() / 2});
  TwoPassSpanner fresh1(32, config);
  expect_round_trip_identity(pass1, fresh1);

  // Mid pass 2 (cluster forest + table fleet state).
  TwoPassSpanner pass2(32, config);
  pass2.absorb({updates.data(), updates.size()});
  pass2.advance_pass();
  pass2.absorb({updates.data(), updates.size() / 3});
  TwoPassSpanner fresh2(32, config);
  expect_round_trip_identity(pass2, fresh2);
}

TEST(SerializeRoundTrip, Kp12BothPhases) {
  const DynamicStream stream = test_stream(32, 120, 40, 105);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  const Kp12Config config = small_kp12_config(29);

  Kp12Sparsifier pass1(32, config);
  pass1.absorb({updates.data(), updates.size() / 2});
  Kp12Sparsifier fresh1(32, config);
  expect_round_trip_identity(pass1, fresh1);

  Kp12Sparsifier pass2(32, config);
  pass2.absorb({updates.data(), updates.size()});
  pass2.advance_pass();
  pass2.absorb({updates.data(), updates.size() / 3});
  Kp12Sparsifier fresh2(32, config);
  expect_round_trip_identity(pass2, fresh2);
}

TEST(SerializeRoundTrip, Kp12NeverUpdated) {
  // Instances are built lazily on the first update; an untouched sparsifier
  // must round-trip as "uninitialized", not as an empty fleet.
  const Kp12Config config = small_kp12_config(30);
  Kp12Sparsifier a(32, config);
  Kp12Sparsifier b(32, config);
  expect_round_trip_identity(a, b);
}

TEST(SerializeRoundTrip, MultipassSpannerMidPhase) {
  const DynamicStream stream = test_stream(32, 120, 40, 106);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  MultipassConfig config;
  config.k = 3;
  config.seed = 31;

  // Mid phase 1.
  MultipassSpanner a(32, config);
  a.absorb({updates.data(), updates.size() / 2});
  MultipassSpanner fresh1(32, config);
  expect_round_trip_identity(a, fresh1);

  // Mid phase 2 (clustering state + fresh phase sketches).
  MultipassSpanner b(32, config);
  b.absorb({updates.data(), updates.size()});
  b.advance_pass();
  b.absorb({updates.data(), updates.size() / 3});
  MultipassSpanner fresh2(32, config);
  expect_round_trip_identity(b, fresh2);
}

TEST(SerializeRoundTrip, AdditiveSpannerMidStream) {
  const DynamicStream stream = test_stream(48, 200, 60, 107);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
  AdditiveConfig config;
  config.d = 4.0;
  config.seed = 32;
  AdditiveSpannerSketch a(48, config);
  a.absorb({updates.data(), updates.size() / 2});
  AdditiveSpannerSketch b(48, config);
  expect_round_trip_identity(a, b);
}

TEST(SerializeRoundTrip, DemuxProcessor) {
  const DynamicStream stream = test_stream(40, 140, 40, 108);
  const std::vector<EdgeUpdate> updates = stream_updates(stream);
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
  expect_round_trip_identity(a, b);
}

TEST(Serialize, FinishedSpannerRefusesToSerialize) {
  const DynamicStream stream = test_stream(32, 100, 0, 109);
  TwoPassSpanner spanner(32, []() {
    TwoPassConfig c;
    c.k = 2;
    c.seed = 34;
    return c;
  }());
  StreamEngine::run_single(spanner, stream);
  EXPECT_THROW((void)ser::save_to_bytes(spanner), ser::SerializeError);
}

// ---- the distributed merge protocol --------------------------------------

TEST(SerializeMerge, ForestShardsMatchSequential) {
  const Graph g = erdos_renyi_gnm(48, 220, 110);
  const DynamicStream stream = DynamicStream::with_churn(g, 150, 111);
  AgmConfig config;
  config.seed = 35;

  // Sequential reference.
  SpanningForestProcessor sequential(48, config);
  StreamEngine::run_single(sequential, stream);
  const ForestResult expect = sequential.take_result();

  // 4 shards sketch slices (churn interleaved across shards: an insert and
  // its delete routinely land on different machines), communicate bytes.
  SpanningForestProcessor coordinator(48, config);
  for (const DynamicStream& slice : stream.split(4)) {
    auto local = coordinator.clone_empty();
    const std::vector<EdgeUpdate> updates = stream_updates(slice);
    local->absorb({updates.data(), updates.size()});
    ser::merge_from_bytes(ser::save_to_bytes(*local), coordinator);
  }
  coordinator.finish();
  const ForestResult merged = coordinator.take_result();
  EXPECT_TRUE(merged.complete);
  EXPECT_EQ(edge_list(merged.edges), edge_list(expect.edges));
}

TEST(SerializeMerge, KConnectivityShardsMatchSequential) {
  const Graph g = erdos_renyi_gnm(40, 220, 112);
  const DynamicStream stream = DynamicStream::with_churn(g, 120, 113);
  AgmConfig config;
  config.seed = 36;

  KConnectivitySketch sequential(40, 3, config);
  StreamEngine::run_single(sequential, stream);
  const KConnectivityResult expect = sequential.take_result();

  KConnectivitySketch coordinator(40, 3, config);
  for (const DynamicStream& slice : stream.split(3)) {
    auto local = coordinator.clone_empty();
    const std::vector<EdgeUpdate> updates = stream_updates(slice);
    local->absorb({updates.data(), updates.size()});
    ser::merge_from_bytes(ser::save_to_bytes(*local), coordinator);
  }
  coordinator.finish();
  const KConnectivityResult merged = coordinator.take_result();
  EXPECT_EQ(edge_list(merged.certificate.edges()),
            edge_list(expect.certificate.edges()));
}

TEST(SerializeMerge, Kp12TwoRoundProtocolMatchesSequential) {
  const Graph g = erdos_renyi_gnm(32, 130, 114);
  const DynamicStream stream = DynamicStream::with_churn(g, 80, 115);
  const Kp12Config config = small_kp12_config(37);

  Kp12Sparsifier sequential(32, config);
  const Kp12Result expect = sequential.run(stream);

  const std::vector<DynamicStream> slices = stream.split(3);
  Kp12Sparsifier coordinator(32, config);
  // Round 1: pass-1 shards.
  for (const DynamicStream& slice : slices) {
    auto local = coordinator.clone_empty();
    const std::vector<EdgeUpdate> updates = stream_updates(slice);
    local->absorb({updates.data(), updates.size()});
    ser::merge_from_bytes(ser::save_to_bytes(*local), coordinator);
  }
  coordinator.advance_pass();
  // Broadcast the advanced state; round 2: pass-2 shards from it.
  const std::string advanced = ser::save_to_bytes(coordinator);
  for (const DynamicStream& slice : slices) {
    Kp12Sparsifier worker(32, config);
    ser::load_from_bytes(advanced, worker);
    auto local = worker.clone_empty();
    const std::vector<EdgeUpdate> updates = stream_updates(slice);
    local->absorb({updates.data(), updates.size()});
    ser::merge_from_bytes(ser::save_to_bytes(*local), coordinator);
  }
  coordinator.finish();
  Kp12Result merged = coordinator.take_result();
  EXPECT_EQ(edge_list(merged.sparsifier.edges()),
            edge_list(expect.sparsifier.edges()));
}

// ---- StreamEngine checkpoint/restore --------------------------------------

class CheckpointFile {
 public:
  explicit CheckpointFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~CheckpointFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    std::remove((path_ + ".prev").c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Checkpoint, ResumeFromLastCheckpointMatchesUninterrupted) {
  const DynamicStream stream = test_stream(48, 260, 120, 116);
  AgmConfig config;
  config.seed = 38;

  // Uninterrupted reference.
  SpanningForestProcessor reference(48, config);
  StreamEngine::run_single(reference, stream);
  const ForestResult expect = reference.take_result();

  // Checkpointed run with a cadence that is NOT a divisor of the batch size
  // or the stream length: the last checkpoint lands mid-stream, mid-batch.
  const CheckpointFile ckpt("forest_resume.kwsk");
  StreamEngineOptions options;
  options.batch_size = 64;
  options.checkpoint_every_updates = 150;
  options.checkpoint_path = ckpt.path();
  {
    SpanningForestProcessor victim(48, config);
    StreamEngine engine(options);
    engine.attach(victim);
    (void)engine.run(stream);
    // The run completed, but the file on disk is the LAST periodic
    // checkpoint -- exactly what a kill -9 after that write leaves behind.
  }

  // A new process: fresh processor, resume from the file, replay remainder.
  SpanningForestProcessor resumed(48, config);
  StreamEngine engine(options);
  engine.attach(resumed);
  const EngineRunStats stats = engine.resume(stream, ckpt.path());
  EXPECT_EQ(stats.passes, 1u);
  const ForestResult result = resumed.take_result();
  EXPECT_EQ(edge_list(result.edges), edge_list(expect.edges));
}

TEST(Checkpoint, ResumeMidSecondPassOfTwoPassRun) {
  const DynamicStream stream = test_stream(32, 120, 40, 117);
  const Kp12Config config = small_kp12_config(39);

  Kp12Sparsifier reference(32, config);
  const Kp12Result expect = reference.run(stream);

  const CheckpointFile ckpt("kp12_resume.kwsk");
  StreamEngineOptions options;
  options.batch_size = 32;
  // Cadence > one pass, < two passes: the surviving checkpoint sits inside
  // pass 2, so resume() must restore phase AND mid-pass offset.
  options.checkpoint_every_updates = stream.size() + stream.size() / 3;
  options.checkpoint_path = ckpt.path();
  {
    Kp12Sparsifier victim(32, config);
    StreamEngine engine(options);
    engine.attach(victim);
    (void)engine.run(stream);
  }

  Kp12Sparsifier resumed(32, config);
  StreamEngine engine(options);
  engine.attach(resumed);
  (void)engine.resume(stream, ckpt.path());
  Kp12Result result = resumed.take_result();
  EXPECT_EQ(edge_list(result.sparsifier.edges()),
            edge_list(expect.sparsifier.edges()));
}

TEST(Checkpoint, RejectsCorruptAndMismatchedFiles) {
  const DynamicStream stream = test_stream(32, 100, 0, 118);
  AgmConfig config;
  config.seed = 40;

  const CheckpointFile ckpt("corrupt.kwsk");
  StreamEngineOptions options;
  options.batch_size = 32;
  options.checkpoint_every_updates = 50;
  options.checkpoint_path = ckpt.path();
  {
    SpanningForestProcessor victim(32, config);
    StreamEngine engine(options);
    engine.attach(victim);
    (void)engine.run(stream);
  }

  // Missing file.
  {
    SpanningForestProcessor p(32, config);
    StreamEngine engine(options);
    engine.attach(p);
    EXPECT_THROW((void)engine.resume(stream, ckpt.path() + ".nope"),
                 ser::SerializeError);
  }
  // Flipped byte in the latest AND the rotation fallback: CRC rejects both
  // before any state is parsed (the corrupt-latest-with-good-prev case --
  // fallback succeeds -- lives in test_crash_recovery.cc).
  {
    for (const std::string& path : {ckpt.path(), ckpt.path() + ".prev"}) {
      std::ifstream is(path, std::ios::binary);
      if (!is) continue;
      std::string bytes((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
      is.close();
      bytes[bytes.size() / 2] ^= 0x10;
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    SpanningForestProcessor p(32, config);
    StreamEngine engine(options);
    engine.attach(p);
    EXPECT_THROW((void)engine.resume(stream, ckpt.path()),
                 ser::SerializeError);
  }
}

TEST(Checkpoint, WrongProcessorSetRejected) {
  const DynamicStream stream = test_stream(32, 100, 0, 119);
  AgmConfig config;
  config.seed = 41;

  const CheckpointFile ckpt("wrong_set.kwsk");
  StreamEngineOptions options;
  options.batch_size = 32;
  options.checkpoint_every_updates = 50;
  options.checkpoint_path = ckpt.path();
  {
    SpanningForestProcessor victim(32, config);
    StreamEngine engine(options);
    engine.attach(victim);
    (void)engine.run(stream);
  }

  // A different processor type cannot adopt the checkpoint.
  KConnectivitySketch other(32, 2, config);
  StreamEngine engine(options);
  engine.attach(other);
  EXPECT_THROW((void)engine.resume(stream, ckpt.path()), ser::SerializeError);
}

TEST(Checkpoint, OptionsValidated) {
  StreamEngineOptions no_path;
  no_path.checkpoint_every_updates = 100;
  EXPECT_THROW(StreamEngine{no_path}, std::invalid_argument);

  // Sharded checkpointing is legal (pass-boundary cuts); what a sharded
  // engine rejects is resuming from a MID-pass cut, which only a sequential
  // run can write.  Exercised end to end in test_crash_recovery.cc; here we
  // just pin that construction succeeds.
  StreamEngineOptions sharded;
  sharded.shards = 2;
  sharded.checkpoint_every_updates = 100;
  sharded.checkpoint_path = "x.kwsk";
  EXPECT_NO_THROW(StreamEngine{sharded});
}

TEST(Checkpoint, ShardedResumeRejectsMidPassCut) {
  // A sequential checkpointed run writes mid-pass cuts; a sharded engine
  // cannot restart inside a pass and must say so, not desync.
  const DynamicStream stream = test_stream(48, 260, 120, 133);
  AgmConfig config;
  config.seed = 77;
  const CheckpointFile ckpt("mid_pass_cut.kwsk");

  StreamEngineOptions seq_options;
  seq_options.batch_size = 64;
  seq_options.checkpoint_every_updates = 150;  // not a pass boundary
  seq_options.checkpoint_path = ckpt.path();
  {
    SpanningForestProcessor forest(48, config);
    StreamEngine seq(seq_options);
    seq.attach(forest);
    (void)seq.run(stream);
  }

  StreamEngineOptions sharded_options;
  sharded_options.batch_size = 64;
  sharded_options.shards = 2;
  SpanningForestProcessor fresh(48, config);
  StreamEngine sharded(sharded_options);
  sharded.attach(fresh);
  EXPECT_THROW((void)sharded.resume(stream, ckpt.path()),
               ser::SerializeError);
}

}  // namespace
}  // namespace kw
