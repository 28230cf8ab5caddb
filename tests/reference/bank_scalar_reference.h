// Test-only reference for BankGroup ingestion: the scalar per-level L0
// sampler update.  Per instance it evaluates the group's level hash once,
// then walks the levels with a loop that stops at the first level the hash
// value does not survive (j > 0 and h >= p >> j), adding the update to each
// cell with OneSparseCell::add.  It shares only the bank's randomness
// (level_hash, basis), never its ingest code, so every BankGroup ingest
// path must reach its cells bit for bit; tests/test_sketch_bank.cc pins
// that on both the vertex-grouped scatter and the per-update kernel.
#ifndef KW_TESTS_REFERENCE_BANK_SCALAR_REFERENCE_H
#define KW_TESTS_REFERENCE_BANK_SCALAR_REFERENCE_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sketch/bank_group.h"

namespace kw {

class BankScalarReference {
 public:
  // Zero cells shaped like `bank`, whose randomness the updates use.  The
  // bank must outlive the reference.
  explicit BankScalarReference(const BankGroup& bank);

  // Adds (coord, delta) to `vertex`'s sketch in one group.
  void update(std::size_t group, std::size_t vertex, std::uint64_t coord,
              std::int64_t delta);

  // (coord, +delta) to lo and (coord, -delta) to hi in groups
  // [group_first, group_first + group_count).
  void update_pair(std::size_t group_first, std::size_t group_count,
                   std::size_t lo, std::size_t hi, std::uint64_t coord,
                   std::int64_t delta);

  [[nodiscard]] std::span<const OneSparseCell> stripe(
      std::size_t group, std::size_t vertex) const;

 private:
  const BankGroup* bank_;
  std::vector<OneSparseCell> cells_;  // same vertex-major layout as the bank
};

}  // namespace kw

#endif  // KW_TESTS_REFERENCE_BANK_SCALAR_REFERENCE_H
