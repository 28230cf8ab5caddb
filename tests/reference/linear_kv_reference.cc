#include "reference/linear_kv_reference.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/random.h"

namespace kw {

namespace {

[[nodiscard]] SparseRecoveryConfig payload_config(const LinearKvConfig& c) {
  SparseRecoveryConfig pc;
  pc.max_coord = c.max_payload_coord;
  pc.budget = c.payload_budget;
  pc.rows = c.payload_rows;
  pc.seed = derive_seed(c.seed, 0x52);
  return pc;
}

}  // namespace

bool LinearKeyValueSketch::Cell::is_zero() const noexcept {
  return key_part.is_zero() &&
         std::all_of(payload.begin(), payload.end(),
                     [](const OneSparseCell& c) { return c.is_zero(); });
}

LinearKeyValueSketch::LinearKeyValueSketch(const LinearKvConfig& config)
    : config_(config),
      cells_per_table_(std::max<std::size_t>(
          4, static_cast<std::size_t>(std::ceil(
                 static_cast<double>(config.capacity) / config.load_factor)))),
      key_basis_(derive_seed(config.seed, 0x51)),
      payload_geometry_(payload_config(config)),
      table_hashes_(config.tables, /*independence=*/4,
                    derive_seed(config.seed, 0x53)) {
  if (config.tables == 0) throw std::invalid_argument("tables must be > 0");
  if (config.load_factor <= 0.0 || config.load_factor > 1.0) {
    throw std::invalid_argument("load_factor must be in (0,1]");
  }
}

LinearKeyValueSketch::Cell LinearKeyValueSketch::make_cell() const {
  Cell cell;
  cell.payload.resize(payload_geometry_.cell_count());
  return cell;
}

std::uint64_t LinearKeyValueSketch::slot(std::size_t table,
                                         std::uint64_t key) const {
  return table * cells_per_table_ +
         table_hashes_[table].bucket(key, cells_per_table_);
}

void LinearKeyValueSketch::update(std::uint64_t key, std::int64_t key_delta,
                                  std::uint64_t payload_coord,
                                  std::int64_t payload_delta) {
  if (key >= config_.max_key) {
    throw std::out_of_range("kv sketch key out of range");
  }
  if (key_delta == 0 && payload_delta == 0) return;
  for (std::size_t t = 0; t < config_.tables; ++t) {
    const auto it = cells_.try_emplace(slot(t, key), make_cell()).first;
    Cell& cell = it->second;
    if (key_delta != 0) cell.key_part.add(key, key_delta, key_basis_);
    if (payload_delta != 0) {
      payload_geometry_.update_state(cell.payload, payload_coord,
                                     payload_delta);
    }
    if (cell.is_zero()) cells_.erase(it);
  }
}

std::optional<std::vector<KvEntry>> LinearKeyValueSketch::decode() const {
  // Plain peeling on a copy: take a cell whose key detector verifies
  // one-sparse (every update in it shares one key, so its payload is that
  // key's whole payload), record it, subtract it from the key's cell in
  // every table, and rescan until no cell verifies.
  std::unordered_map<std::uint64_t, Cell> work = cells_;
  std::vector<KvEntry> found;
  for (bool peeled = true; peeled;) {
    peeled = false;
    std::vector<std::uint64_t> slots;
    for (const auto& [slot_id, cell] : work) slots.push_back(slot_id);
    std::sort(slots.begin(), slots.end());
    for (const std::uint64_t slot_id : slots) {
      const Cell& cell = work.at(slot_id);
      Recovered rec;
      if (classify_cell(cell.key_part, config_.max_key, key_basis_, &rec) !=
          CellState::kOneSparse) {
        continue;
      }
      const KvEntry entry{rec.coord, rec.value, cell.payload};
      OneSparseCell key_part;
      key_part.add(entry.key, entry.key_count, key_basis_);
      for (std::size_t t = 0; t < config_.tables; ++t) {
        Cell& dst =
            work.try_emplace(slot(t, entry.key), make_cell()).first->second;
        dst.key_part.merge(key_part, -1);
        for (std::size_t i = 0; i < dst.payload.size(); ++i) {
          dst.payload[i].merge(entry.payload[i], -1);
        }
      }
      found.push_back(entry);
      peeled = true;
    }
  }
  // Residual check: every cell (key AND payload) must be zero, else the
  // table was overloaded.
  for (const auto& [slot_id, cell] : work) {
    if (!cell.is_zero()) return std::nullopt;
  }
  std::sort(found.begin(), found.end(),
            [](const KvEntry& a, const KvEntry& b) { return a.key < b.key; });
  // Fold duplicates (possible only under a fingerprint collision).
  std::vector<KvEntry> out;
  for (KvEntry& e : found) {
    if (!out.empty() && out.back().key == e.key) {
      out.back().key_count += e.key_count;
      for (std::size_t i = 0; i < out.back().payload.size(); ++i) {
        out.back().payload[i].merge(e.payload[i], 1);
      }
    } else {
      out.push_back(std::move(e));
    }
  }
  return out;
}

std::size_t LinearKeyValueSketch::touched_bytes() const noexcept {
  const std::size_t cell_bytes =
      sizeof(OneSparseCell) * (1 + payload_geometry_.cell_count());
  return cells_.size() * cell_bytes + sizeof(LinearKvConfig);
}

}  // namespace kw
