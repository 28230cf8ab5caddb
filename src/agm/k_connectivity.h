// k-edge-connectivity certificates from linear sketches -- the [AGM12a]
// construction the paper's introduction cites ("connectivity,
// k-connectivity ... with near linear space").
//
// Maintain k independent AGM sketch sets during the stream.  Afterwards,
// extract a spanning forest F_1 from the first sketch, subtract F_1's edges
// from the second (linearity!), extract F_2, and so on.  The union
// F_1 u ... u F_k is a sparse certificate: it preserves every cut of G up
// to size k, hence min(lambda(G), k) = lambda(certificate)
// (Nagamochi-Ibaraki).  Space: k times one sketch.
//
// Storage: the k layers x rounds banks are ONE fused BankGroup (layer i's
// round r at group i*rounds + r, seeds unchanged from the per-layer
// AgmGraphSketch era), so an edge update is staged once for all k*rounds
// banks instead of once per layer per round -- see sketch/bank_group.h.
#ifndef KW_AGM_K_CONNECTIVITY_H
#define KW_AGM_K_CONNECTIVITY_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "agm/neighborhood_sketch.h"
#include "engine/stream_processor.h"
#include "graph/graph.h"
#include "stream/dynamic_stream.h"

namespace kw {

struct KConnectivityResult {
  std::vector<std::vector<Edge>> forests;  // F_1 .. F_k, edge-disjoint
  Graph certificate;                       // their union
  bool complete = true;                    // every forest extraction clean
  // Decode failures summed per layer (forest F_i's Boruvka rounds) and in
  // total -- see ForestResult::decode_failures.
  std::vector<std::size_t> decode_failures_per_layer;
  std::size_t decode_failures = 0;
};

// Streaming front-end: k sketch sets updated together in one pass, driven
// as an engine StreamProcessor.
class KConnectivitySketch final : public StreamProcessor {
 public:
  KConnectivitySketch(Vertex n, std::size_t k, const AgmConfig& config);

  // --- StreamProcessor (engine-driven, single pass) ---
  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return 1;
  }
  [[nodiscard]] Vertex n() const noexcept override { return n_; }
  void absorb(std::span<const EdgeUpdate> batch) override;
  void advance_pass() override;  // single-pass: always throws
  void finish() override;        // peels the certificate out of the sketches
  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override;
  void merge(StreamProcessor&& other) override;

  // Valid once after finish().
  [[nodiscard]] KConnectivityResult take_result();

  // Decode-failure accounting (engine/health.h); survives take_result().
  [[nodiscard]] ProcessorHealth health() const override;

  // this += sign * other (distributed merge); same (n, k, seed) required.
  void merge(const KConnectivitySketch& other, std::int64_t sign = 1);

  // Consumes the sketches: peels k edge-disjoint spanning forests.
  [[nodiscard]] KConnectivityResult extract() &&;

  [[nodiscard]] std::size_t nominal_bytes() const noexcept;

  // Convenience: exactly one pass-counted replay via StreamEngine.
  [[nodiscard]] static KConnectivityResult from_stream(
      const DynamicStream& stream, std::size_t k, const AgmConfig& config);

  // The fused k*rounds-group storage (layer-level slicing for tests).
  [[nodiscard]] const BankGroup& bank_group() const noexcept {
    return group_;
  }
  [[nodiscard]] std::size_t k() const noexcept { return k_; }

  // ---- serialization (src/serialize/processor_serialize.cc) ------------
  [[nodiscard]] std::uint32_t serial_tag() const noexcept override;
  void serialize(ser::Writer& w) const override;
  void deserialize(ser::Reader& r) override;

 private:
  Vertex n_;
  std::size_t k_ = 0;
  AgmConfig config_;
  bool finished_ = false;
  BankGroup group_;  // layer i's round r at group i * rounds + r
  // absorb() batch, staged once and ingested in place.
  std::vector<BankPairUpdate> staging_;
  std::optional<KConnectivityResult> result_;
  ProcessorHealth health_;  // filled at finish()
};

}  // namespace kw

#endif  // KW_AGM_K_CONNECTIVITY_H
