/// Flat per-vertex L0 sketch bank ([JST11]/[AGM12a]-style L0 sampling):
/// n independent L0 samplers (one per vertex) sharing one seed, hence one
/// hash family and fingerprint basis -- the sharing that makes per-vertex
/// sketches summable across vertices, which Boruvka-over-sketches requires.
///
/// Each sampler keeps, per independent instance, one one-sparse detector per
/// level over the coordinates surviving rate-2^-j subsampling (nested,
/// driven by one k-wise hash); when a vector has L0 nonzeros, the level near
/// log2(L0) is one-sparse with constant probability and returns its
/// (coordinate, value) exactly.  A one-vertex bank is the single-vector
/// sampler.
///
/// Since the fused multi-round refactor this class is a thin wrapper around
/// a one-group BankGroup (sketch/bank_group.h), which owns the contiguous
/// vertex-major cell layout and every ingest fast path (shared pair
/// hashing, staged fingerprint terms, batched eval_many sweeps,
/// vertex-grouped scatter).  Algorithms that keep one bank per Boruvka
/// round or per k-connectivity layer should hold a multi-group BankGroup
/// instead -- same cells, one staging pass for all rounds.
///
/// All paths produce cells bit-identical to the scalar per-level sampler
/// algorithm (same derive_seed constants, same field arithmetic; the cell
/// adds commute exactly), which tests/test_sketch_bank.cc pins down.
#ifndef KW_SKETCH_SKETCH_BANK_H
#define KW_SKETCH_SKETCH_BANK_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "serialize/serialize_fwd.h"
#include "sketch/bank_group.h"
#include "sketch/fingerprint.h"
#include "util/hashing.h"

namespace kw {

struct SketchBankConfig {
  std::uint64_t max_coord = 1;  // coordinate space is [0, max_coord)
  std::size_t instances = 4;    // independent repetitions tried at decode
  std::uint64_t seed = 1;
};

class SketchBank {
 public:
  // Empty bank (0 vertices); assignable from a real one.
  SketchBank() = default;

  SketchBank(std::size_t vertices, const SketchBankConfig& config)
      : config_(config), group_(vertices, group_config(config)) {}

  [[nodiscard]] std::size_t vertices() const noexcept {
    return group_.vertices();
  }
  [[nodiscard]] std::size_t instances() const noexcept {
    return config_.instances;
  }
  [[nodiscard]] std::size_t levels() const noexcept { return group_.levels(); }
  [[nodiscard]] std::size_t cells_per_vertex() const noexcept {
    return group_.cells_per_stripe();
  }
  [[nodiscard]] const SketchBankConfig& config() const noexcept {
    return config_;
  }

  // ---- ingest ---------------------------------------------------------

  // Applies (coord, delta) to `vertex`'s sketch.
  void update(std::size_t vertex, std::uint64_t coord, std::int64_t delta) {
    group_.update(0, vertex, coord, delta);
  }

  // AGM incidence update: (coord, +delta) to lo, (coord, -delta) to hi.
  // One hash evaluation and one fingerprint-term computation serve both
  // endpoints.  lo and hi must differ.
  void update_pair(std::size_t lo, std::size_t hi, std::uint64_t coord,
                   std::int64_t delta) {
    group_.update_pair(0, 1, lo, hi, coord, delta);
  }

  // Batched update_pair over a whole absorb() batch (the BankGroup fused
  // path: staged terms, eval_many hash sweep, vertex-grouped scatter).
  // Uses internal scratch -- not safe for concurrent calls on one bank.
  void ingest_pairs(std::span<const BankPairUpdate> batch) {
    group_.ingest_pairs(batch);
  }

  // Batched single-vertex updates through the same fused path.
  void ingest_updates(std::span<const BankVertexUpdate> batch) {
    group_.ingest_updates(batch);
  }

  // ---- linearity ------------------------------------------------------

  // this += sign * other; other must share (vertices, seed, geometry).
  void merge(const SketchBank& other, std::int64_t sign = 1) {
    group_.merge(other.group_, sign);
  }

  // A zero bank with identical configuration and randomness.
  [[nodiscard]] SketchBank clone_empty() const {
    return SketchBank(vertices(), config_);
  }

  // ---- decode ---------------------------------------------------------

  // A nonzero coordinate of `vertex`'s sketched vector with its value, or
  // nullopt if every instance failed (e.g. the vector is zero).
  [[nodiscard]] std::optional<Recovered> decode(std::size_t vertex) const {
    return group_.decode(0, vertex);
  }

  // `vertex`'s contiguous run of instances*levels cells.
  [[nodiscard]] std::span<const OneSparseCell> stripe(
      std::size_t vertex) const {
    return group_.stripe(0, vertex);
  }

  // acc += sign * stripe(vertex).  acc must hold cells_per_vertex() cells
  // written by this bank (or zero-initialized).  This is how a supernode's
  // member sketches are summed before decoding.
  void accumulate(std::span<OneSparseCell> acc, std::size_t vertex,
                  std::int64_t sign = 1) const {
    group_.accumulate(acc, 0, vertex, sign);
  }

  // Decodes an external stripe (e.g. an accumulate() sum): deepest level
  // first per instance, the sampler's decode order.
  [[nodiscard]] std::optional<Recovered> decode_cells(
      std::span<const OneSparseCell> cells) const {
    return group_.decode_cells(0, cells);
  }

  [[nodiscard]] bool vertex_is_zero(std::size_t vertex) const noexcept {
    return group_.vertex_is_zero(0, vertex);
  }
  [[nodiscard]] bool is_zero() const noexcept { return group_.is_zero(); }
  [[nodiscard]] static bool cells_zero(
      std::span<const OneSparseCell> cells) noexcept {
    return BankGroup::cells_zero(cells);
  }

  [[nodiscard]] std::size_t nominal_bytes() const noexcept {
    return vertices() * cells_per_vertex() * sizeof(OneSparseCell) +
           sizeof(SketchBankConfig);
  }

  // Randomness accessors (golden tests reproduce the scalar reference path
  // from these).
  [[nodiscard]] const FingerprintBasis& basis() const noexcept {
    return group_.basis(0);
  }
  [[nodiscard]] const KWiseHash& level_hash(std::size_t instance) const {
    return group_.level_hash(0, instance);
  }

  // ---- serialization (src/serialize/sketch_serialize.cc) ---------------
  void serialize(ser::Writer& w) const;
  void deserialize(ser::Reader& r);

 private:
  [[nodiscard]] static BankGroupConfig group_config(
      const SketchBankConfig& config) {
    BankGroupConfig c;
    c.max_coord = config.max_coord;
    c.instances = config.instances;
    c.seeds = {config.seed};
    return c;
  }

  SketchBankConfig config_;
  BankGroup group_;  // one group, seeded by config_.seed
};

}  // namespace kw

#endif  // KW_SKETCH_SKETCH_BANK_H
