// Test-only reference for the linear key -> payload-sketch table of
// Section 3.2 (one H^u_j table, decodable by Claim 11): one plain
// hash-map-backed table per level, decoded on its own.  The library's only
// implementation is the level-diff KvTableBank; KvTableBank.*MatchesReference
// feeds both the same updates and requires identical decodes level by level.
//
// Built from the same seed chain as a KvBankGeometry (key basis 0x51,
// payload geometry 0x52, table hashes 0x53), so the reference and a bank on
// an equal LinearKvConfig hash every key to the same slots.  Cells whose
// state cancels to zero are erased, so touched_bytes() counts live cells.
#ifndef KW_TESTS_REFERENCE_LINEAR_KV_REFERENCE_H
#define KW_TESTS_REFERENCE_LINEAR_KV_REFERENCE_H

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sketch/fingerprint.h"
#include "sketch/linear_kv_sketch.h"
#include "sketch/sparse_recovery.h"
#include "util/hashing.h"

namespace kw {

class LinearKeyValueSketch {
 public:
  explicit LinearKeyValueSketch(const LinearKvConfig& config);

  // Key count += key_delta; the payload sketch gets (payload_coord,
  // payload_delta).  Either part may be a no-op (delta 0).
  void update(std::uint64_t key, std::int64_t key_delta,
              std::uint64_t payload_coord, std::int64_t payload_delta);

  // The key -> (count, payload) map sorted by key, or nullopt when the
  // table is overloaded.  Keys whose state cancelled to zero do not appear.
  [[nodiscard]] std::optional<std::vector<KvEntry>> decode() const;

  // Live cells times the dense cell size, plus the config header.
  [[nodiscard]] std::size_t touched_bytes() const noexcept;

 private:
  struct Cell {
    OneSparseCell key_part;
    std::vector<OneSparseCell> payload;

    [[nodiscard]] bool is_zero() const noexcept;
  };

  [[nodiscard]] std::uint64_t slot(std::size_t table, std::uint64_t key) const;
  [[nodiscard]] Cell make_cell() const;

  LinearKvConfig config_;
  std::size_t cells_per_table_;
  FingerprintBasis key_basis_;
  SparseRecoverySketch payload_geometry_;  // zero sketch: hashes/basis only
  HashFamily table_hashes_;
  // Slot id (table * cells_per_table + cell) -> cell.
  std::unordered_map<std::uint64_t, Cell> cells_;
};

}  // namespace kw

#endif  // KW_TESTS_REFERENCE_LINEAR_KV_REFERENCE_H
