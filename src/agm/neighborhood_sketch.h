// AGM vertex-neighborhood sketches [AGM12a], Theorem 10 substrate.
//
// Vertex u's incidence vector a_u over the C(n,2) pair coordinates holds
// +mult at pair {u,v} if u is the smaller endpoint and -mult if the larger.
// Summing a_u over a vertex set S cancels every edge inside S and leaves
// exactly the boundary edges -- the property Boruvka-over-sketches needs,
// and the property the paper exploits for supernode collapsing in the
// additive-spanner construction ("an AGM sketch for H can be obtained from
// an AGM sketch for G by adding sketches of vertex neighborhoods").
//
// Storage: ONE fused BankGroup with one group per Boruvka round (fresh
// randomness per round keeps rounds independent; within a round all
// vertices share the seed so their sketches can be summed).  All rounds x
// vertices x instances x levels cells live in one vertex-major allocation,
// and a batched edge update stages its pair id, delta image and weighted
// sums once for ALL rounds -- see sketch/bank_group.h for the layout and
// the fused ingest path.
#ifndef KW_AGM_NEIGHBORHOOD_SKETCH_H
#define KW_AGM_NEIGHBORHOOD_SKETCH_H

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "serialize/serialize_fwd.h"
#include "sketch/bank_group.h"
#include "stream/update.h"

namespace kw {

struct AgmConfig {
  std::size_t rounds = 12;            // Boruvka rounds supported
  std::size_t sampler_instances = 4;  // repetitions inside each L0 sketch
  std::uint64_t seed = 1;
};

// The per-round bank seed chain (also used by KConnectivitySketch to lay
// its k layers' rounds into one flat BankGroup with identical randomness).
[[nodiscard]] std::vector<std::uint64_t> agm_round_seeds(
    const AgmConfig& config);

class AgmGraphSketch {
 public:
  AgmGraphSketch(Vertex n, const AgmConfig& config);

  [[nodiscard]] Vertex n() const noexcept { return n_; }
  [[nodiscard]] std::size_t rounds() const noexcept { return config_.rounds; }

  // Batched ingest of a whole absorb() batch (self-loops skipped): pair ids
  // are computed once per edge and the fused BankGroup takes the batch
  // through one staged sweep covering every round.
  void absorb(std::span<const EdgeUpdate> batch);

  // Staging: canonicalizes a batch (range checks, self-loop filter, pair
  // ids) into bank pair updates for vertex set size n.  Staging depends
  // only on (n, batch), so callers holding several same-n sketches stage
  // once and feed each via ingest_staged().  Any endpoint >= n throws
  // std::out_of_range (self-loops included) before `out` changes.
  static void stage(Vertex n, std::span<const EdgeUpdate> batch,
                    std::vector<BankPairUpdate>& out);

  // Ingests bank pair updates for this n: those stage() produced, or an
  // explicit signed edge multiset (lo < hi, coord = pair_id(lo, hi, n),
  // int64 multiplicity).  By linearity a negative multiset subtracts edges
  // after the stream ends -- E_low in Algorithm 3.
  void ingest_staged(std::span<const BankPairUpdate> staged);

  // this += sign * other (distributed merge).
  void merge(const AgmGraphSketch& other, std::int64_t sign = 1);

  // The fused multi-round storage, group r = Boruvka round r: consumers
  // sum member stripes with accumulate() and decode via decode_cells() (the
  // forest builder), or decode a single vertex directly.
  [[nodiscard]] const BankGroup& bank_group() const noexcept {
    return group_;
  }

  [[nodiscard]] std::size_t nominal_bytes() const noexcept {
    return group_.nominal_bytes();
  }

  // ---- serialization (src/serialize/sketch_serialize.cc) ---------------
  void serialize(ser::Writer& w) const;
  void deserialize(ser::Reader& r);

 private:
  Vertex n_;
  AgmConfig config_;
  BankGroup group_;                      // one group per round, fused
  // absorb() batch staging, reused; the bank aggregates and sorts it in
  // place, so it is the only per-update copy of a batch.
  std::vector<BankPairUpdate> staging_;
};

}  // namespace kw

#endif  // KW_AGM_NEIGHBORHOOD_SKETCH_H
