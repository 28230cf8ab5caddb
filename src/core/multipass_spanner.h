/// The competing tradeoff point the paper cites ([AGM12b]): a (2k-1)-spanner
/// in O(k) passes over the dynamic stream, i.e. a sketch-based implementation
/// of Baswana-Sen clustering, one clustering phase per pass.
///
/// Phase i (one pass): cluster centers surviving at rate n^{-1/k} are known
/// before the pass; every vertex maintains (a) an L0 sampler over its edges
/// into surviving clusters (to re-home) and (b) a linear key->edge table
/// keyed by neighboring cluster id (to take one edge per neighboring cluster
/// if re-homing fails -- the per-vertex table is decodable because a vertex
/// with many neighboring clusters has a sampled one whp, the same argument
/// as Claim 11).  The table is a one-level KvTableBank, the same structure
/// as the two-pass spanner's H^u_j; all vertices of a phase share one bank
/// geometry.  The final pass joins every remaining cluster pair.
///
/// Stretch 2k-1 with O(k n^{1+1/k} log n) edges in k passes -- the paper's
/// Theorem 1 gets stretch 2^k in TWO passes at the same space; this class
/// exists so experiment E9 can show both streaming points side by side.
///
/// MultipassSpanner implements the k-pass StreamProcessor contract: each
/// engine pass is one clustering phase, advance_pass() re-homes and sets up
/// the next phase's sketches, and -- since the per-phase sketches are
/// linear and the clustering decisions are fixed before each pass --
/// clone_empty()/merge() shard every pass.
#ifndef KW_CORE_MULTIPASS_SPANNER_H
#define KW_CORE_MULTIPASS_SPANNER_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/config.h"
#include "engine/stream_processor.h"
#include "graph/graph.h"
#include "sketch/bank_group.h"
#include "sketch/linear_kv_sketch.h"
#include "stream/dynamic_stream.h"

namespace kw {

struct MultipassResult {
  Graph spanner;
  std::size_t passes_used = 0;
  std::size_t nominal_bytes = 0;
  std::size_t unrecovered = 0;  // decode misses (diagnostic)
};

struct MultipassConfig {
  unsigned k = 2;  // stretch bound 2k-1, k passes
  std::uint64_t seed = 1;
  double table_capacity_factor = 1.0;  // x n^{1/k} log2 n keys per vertex
  std::size_t sampler_instances = 4;
};

class MultipassSpanner final : public StreamProcessor {
 public:
  MultipassSpanner(Vertex n, const MultipassConfig& config);

  // --- StreamProcessor (engine-driven, k passes) ---
  [[nodiscard]] std::size_t passes_required() const noexcept override {
    return config_.k;
  }
  [[nodiscard]] Vertex n() const noexcept override { return n_; }
  void absorb(std::span<const EdgeUpdate> batch) override;
  void advance_pass() override;  // re-home, then set up the next phase
  void finish() override;        // final re-homing + spanner assembly
  [[nodiscard]] std::unique_ptr<StreamProcessor> clone_empty() const override;
  void merge(StreamProcessor&& other) override;

  // Valid once after finish().
  [[nodiscard]] MultipassResult take_result();

  // Convenience: exactly k pass-counted replays via StreamEngine.
  [[nodiscard]] MultipassResult run(const DynamicStream& stream);

  // ---- serialization (src/serialize/spanner_serialize.cc) --------------
  // Supported at any point before finish(); the clustering state and the
  // current phase's linear sketches are stored together.
  [[nodiscard]] std::uint32_t serial_tag() const noexcept override;
  void serialize(ser::Writer& w) const override;
  void deserialize(ser::Reader& r) override;

 private:
  struct EmptyCloneTag {};

  MultipassSpanner(const MultipassSpanner& other, EmptyCloneTag);
  void make_phase_sketches();  // fresh zero sketches seeded by (config, phase)
  void begin_phase();  // survivors + fresh per-vertex sketches for phase_
  void rehome();       // post-pass decoding and cluster moves
  void add_pair(std::uint64_t pair_coord);

  Vertex n_;
  MultipassConfig config_;
  unsigned phase_ = 1;  // 1-based, mirrors the paper's phase numbering
  bool finished_ = false;
  double survive_rate_ = 1.0;
  std::map<std::pair<Vertex, Vertex>, double> edges_;  // spanner so far
  // cluster_of_[v]: center of v's cluster; kInvalidVertex once v settled.
  std::vector<Vertex> cluster_of_;
  std::vector<char> survives_;  // this phase's surviving centers
  BankGroup to_sampled_;  // one group: per-vertex L0 over edges into survivors
  std::vector<BankVertexUpdate> sampler_staging_;  // absorb() gather, reused
  std::vector<KvTableBank> per_cluster_;  // one-level bank per vertex
  std::size_t nominal_bytes_ = 0;
  std::size_t unrecovered_ = 0;
  std::size_t passes_done_ = 0;
  std::optional<MultipassResult> result_;  // set by finish()
};

// Runs k passes over the stream and returns the (2k-1)-spanner.
[[nodiscard]] MultipassResult multipass_baswana_sen(
    const DynamicStream& stream, const MultipassConfig& config);

}  // namespace kw

#endif  // KW_CORE_MULTIPASS_SPANNER_H
