/// Theorem 3 / Theorem 19: a single-pass O(n/d)-additive spanner in ~O(nd)
/// space (Algorithm 3 of the paper).
///
/// One pass maintains, per vertex u: SKETCH_{~O(d)}(N(u)) (full neighborhood,
/// decodable for low-degree vertices), an L0 sampler of N(u) cap C over
/// nested Z^r subsamples (recovers a center neighbor for high-degree
/// vertices), a distinct-elements degree estimate, and the AGM sketches of
/// Theorem 10.
///
/// Post-processing: E_low = edges of low-degree vertices (decoded exactly);
/// every high-degree vertex attaches to a center in C (rate ~1/d), forming
/// star clusters F; the AGM sketches -- with E_low subtracted via linearity
/// -- yield a spanning forest F' of the cluster contraction of G - E_low.
/// Output E_low cup F cup F'.  Distortion O(n/d): a shortest path visits each
/// of the O(n/d) clusters at most once and every detour costs O(1) per
/// cluster plus O(n/d) across the contracted forest.
///
/// Centers are sampled at rate min(1, center_rate_factor / d), so for
/// d <= center_rate_factor (d <= 2 at the default factor) every vertex is a
/// center: the center bank never attaches a vertex, every cluster is a
/// singleton, and the output is E_low plus a spanning forest of G - E_low.
/// With d <= 2, O(n/d) is O(n), which any spanning forest already meets, so
/// that regime is trivial rather than wrong.
#ifndef KW_CORE_ADDITIVE_SPANNER_H
#define KW_CORE_ADDITIVE_SPANNER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "agm/neighborhood_sketch.h"
#include "core/config.h"
#include "engine/stream_processor.h"
#include "graph/graph.h"
#include "sketch/distinct_elements.h"
#include "sketch/bank_group.h"
#include "sketch/sparse_recovery.h"
#include "stream/dynamic_stream.h"
#include "util/hashing.h"

namespace kw {

struct AdditiveDiagnostics {
  std::size_t low_degree_vertices = 0;
  std::size_t low_decode_failures = 0;   // estimated-low but SKETCH failed
  std::size_t unattached_high_degree = 0;  // no center recovered
  std::size_t clusters = 0;
  std::size_t forest_rounds = 0;
  bool forest_complete = true;

  [[nodiscard]] bool healthy() const noexcept {
    return low_decode_failures == 0 && unattached_high_degree == 0 &&
           forest_complete;
  }
};

struct AdditiveResult {
  Graph spanner;
  AdditiveDiagnostics diagnostics;
  std::size_t nominal_bytes = 0;
};

class AdditiveSpannerSketch final : public StreamProcessor {
 public:
  AdditiveSpannerSketch(Vertex n, const AdditiveConfig& config);

  // --- StreamProcessor (engine-driven, single pass) ---
  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return 1;
  }
  [[nodiscard]] Vertex n() const noexcept override { return n_; }
  void absorb(std::span<const EdgeUpdate> batch) override;
  void advance_pass() override;  // single-pass: always throws
  void finish() override;        // post-processing; read via take_result()
  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override;
  void merge(StreamProcessor&& other) override;

  // Valid once after finish().
  [[nodiscard]] AdditiveResult take_result();

  // Convenience: exactly one pass-counted replay via StreamEngine.
  [[nodiscard]] AdditiveResult run(const DynamicStream& stream);

  [[nodiscard]] bool is_center(Vertex v) const { return in_centers_[v] != 0; }
  [[nodiscard]] double degree_threshold() const noexcept { return threshold_; }

  // ---- serialization (src/serialize/processor_serialize.cc) ------------
  [[nodiscard]] std::uint32_t serial_tag() const noexcept override;
  void serialize(ser::Writer& w) const override;
  void deserialize(ser::Reader& r) override;

 private:
  Vertex n_;
  AdditiveConfig config_;
  double threshold_;
  std::vector<char> in_centers_;

  std::vector<SparseRecoverySketch> neighborhood_;   // S(u)
  BankGroup center_bank_;  // A^r(u), all r nested; one group
  std::vector<BankVertexUpdate> center_staging_;     // absorb() gather, reused
  std::vector<DistinctElementsSketch> degree_;       // hat d_u
  AgmGraphSketch agm_;
  bool finished_ = false;
  std::optional<AdditiveResult> result_;  // set by finish()
};

}  // namespace kw

#endif  // KW_CORE_ADDITIVE_SPANNER_H
