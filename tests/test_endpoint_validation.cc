// Endpoint validation at every algorithm processor's absorb(): an update
// with an endpoint >= n -- self-loops included -- throws std::out_of_range,
// and it does so before any state changes, so a rejected batch whose valid
// prefix came first leaves the processor's serialized bytes exactly as they
// were.  Checked mid-stream in every pass each processor runs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "agm/k_connectivity.h"
#include "agm/spanning_forest.h"
#include "core/additive_spanner.h"
#include "core/kp12_sparsifier.h"
#include "core/multipass_spanner.h"
#include "core/two_pass_spanner.h"
#include "engine/processors.h"
#include "graph/generators.h"
#include "serialize/serialize.h"
#include "stream/dynamic_stream.h"

namespace kw {
namespace {

constexpr Vertex kN = 64;

[[nodiscard]] std::vector<EdgeUpdate> valid_updates() {
  return DynamicStream::with_churn(erdos_renyi_gnm(kN, 3 * kN, 5), kN, 6)
      .updates();
}

// Feeds the valid stream, then checks that each bad batch throws and leaves
// the serialized state unchanged.
template <class Processor>
void expect_bad_batches_rejected(Processor& processor) {
  processor.absorb(valid_updates());
  const std::string before = ser::save_to_bytes(processor);
  const std::vector<std::vector<EdgeUpdate>> bad = {
      {{1, 2}, {3, 4000}},      // valid prefix, far endpoint
      {{1, 2}, {kN, 0}},        // first endpoint just out of range
      {{1, 2}, {0, kN}},        // second endpoint just out of range
      {{1, 2}, {kN, kN}},       // out-of-range self-loop
  };
  for (const auto& batch : bad) {
    EXPECT_THROW(processor.absorb(batch), std::out_of_range)
        << batch[1].u << "-" << batch[1].v;
    EXPECT_TRUE(ser::save_to_bytes(processor) == before)
        << batch[1].u << "-" << batch[1].v << " changed the state";
  }
}

TEST(EndpointValidation, TwoPassSpanner) {
  TwoPassConfig config;
  config.seed = 7;
  TwoPassSpanner spanner(kN, config);
  expect_bad_batches_rejected(spanner);
  spanner.advance_pass();
  expect_bad_batches_rejected(spanner);
}

TEST(EndpointValidation, Kp12Sparsifier) {
  Kp12Config config;
  config.seed = 7;
  config.j_copies = 2;
  config.z_samples = 2;
  config.ingest_workers = 1;
  Kp12Sparsifier sparsifier(kN, config);
  expect_bad_batches_rejected(sparsifier);
  sparsifier.advance_pass();
  expect_bad_batches_rejected(sparsifier);
}

TEST(EndpointValidation, MultipassSpanner) {
  MultipassConfig config;
  config.k = 2;
  config.seed = 7;
  MultipassSpanner spanner(kN, config);
  expect_bad_batches_rejected(spanner);
  spanner.advance_pass();
  expect_bad_batches_rejected(spanner);
}

TEST(EndpointValidation, AdditiveSpannerSketch) {
  AdditiveConfig config;
  config.d = 4;
  config.seed = 7;
  AdditiveSpannerSketch sketch(kN, config);
  expect_bad_batches_rejected(sketch);
}

TEST(EndpointValidation, SpanningForestProcessor) {
  AgmConfig config;
  config.seed = 7;
  SpanningForestProcessor forest(kN, config);
  expect_bad_batches_rejected(forest);
}

TEST(EndpointValidation, KConnectivitySketch) {
  AgmConfig config;
  config.seed = 7;
  KConnectivitySketch sketch(kN, 2, config);
  expect_bad_batches_rejected(sketch);
}

TEST(EndpointValidation, DemuxProcessor) {
  // The valid prefix {1, 2} routes to lane 0 and every bad update to lane
  // 1, which absorbs second: only a check ahead of the routing keeps lane 0
  // from taking its share of a rejected batch.
  AgmConfig config;
  config.seed = 7;
  SpanningForestProcessor first(kN, config);
  SpanningForestProcessor second(kN, config);
  const std::vector<StreamProcessor*> lanes = {&first, &second};
  DemuxProcessor demux(lanes, [](const EdgeUpdate& u) {
    return u.u == 1 ? std::size_t{0} : std::size_t{1};
  });
  expect_bad_batches_rejected(demux);
}

}  // namespace
}  // namespace kw
