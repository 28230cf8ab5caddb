#include "reference/bank_scalar_reference.h"

#include "util/prime_field.h"

namespace kw {

BankScalarReference::BankScalarReference(const BankGroup& bank)
    : bank_(&bank), cells_(bank.vertices() * bank.cells_per_vertex()) {}

void BankScalarReference::update(std::size_t group, std::size_t vertex,
                                 std::uint64_t coord, std::int64_t delta) {
  if (delta == 0) return;
  const std::size_t levels = bank_->levels();
  OneSparseCell* stripe = cells_.data() + (vertex * bank_->groups() + group) *
                                              bank_->cells_per_stripe();
  for (std::size_t inst = 0; inst < bank_->instances(); ++inst) {
    const std::uint64_t h = bank_->level_hash(group, inst)(coord);
    for (std::size_t j = 0; j < levels; ++j) {
      if (j > 0 && h >= (kFieldPrime >> j)) break;
      stripe[inst * levels + j].add(coord, delta, bank_->basis(group));
    }
  }
}

void BankScalarReference::update_pair(std::size_t group_first,
                                      std::size_t group_count, std::size_t lo,
                                      std::size_t hi, std::uint64_t coord,
                                      std::int64_t delta) {
  for (std::size_t g = group_first; g < group_first + group_count; ++g) {
    update(g, lo, coord, delta);
    update(g, hi, coord, -delta);
  }
}

std::span<const OneSparseCell> BankScalarReference::stripe(
    std::size_t group, std::size_t vertex) const {
  return {cells_.data() +
              (vertex * bank_->groups() + group) * bank_->cells_per_stripe(),
          bank_->cells_per_stripe()};
}

}  // namespace kw
