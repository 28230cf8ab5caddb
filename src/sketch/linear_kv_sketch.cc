#include "sketch/linear_kv_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/random.h"

namespace kw {

namespace {

// Index of level j's row in an entry's packed block (see KvTableBank::Entry).
[[nodiscard]] std::size_t row_index(std::uint64_t mask, std::size_t j) {
  return static_cast<std::size_t>(
      std::popcount(mask & ((std::uint64_t{1} << j) - 1)));
}

[[nodiscard]] std::size_t depth_of(std::uint64_t mask) {
  return static_cast<std::size_t>(std::bit_width(mask));
}

[[nodiscard]] SparseRecoveryConfig payload_config(const LinearKvConfig& c) {
  SparseRecoveryConfig pc;
  pc.max_coord = c.max_payload_coord;
  pc.budget = c.payload_budget;
  pc.rows = c.payload_rows;
  pc.seed = derive_seed(c.seed, 0x52);
  return pc;
}

}  // namespace

// ---- KvBankGeometry -----------------------------------------------------

KvBankGeometry::KvBankGeometry(std::vector<LinearKvConfig> configs,
                               bool stage_scatter)
    : configs_(std::move(configs)),
      cell_stride_(0),
      payload_rows_(0),
      tables_(configs_.empty() ? 0 : configs_.front().tables),
      max_key_(configs_.empty() ? 0 : configs_.front().max_key),
      // Full radix tables: ONE basis serves the whole fleet, so the
      // per-basis table cost the compact per-terminal bases were dodging
      // amortizes over every bank and every update.
      key_basis_(configs_.empty()
                     ? 0
                     : derive_seed(configs_.front().seed, 0x51),
                 /*full_tables=*/true),
      payload_geometry_([&] {
        if (configs_.empty()) {
          throw std::invalid_argument("bank geometry needs >= 1 config");
        }
        SparseRecoveryConfig pc = payload_config(configs_.front());
        pc.full_pow_tables = true;
        return pc;
      }()),
      table_hashes_(configs_.front().tables, /*independence=*/4,
                    derive_seed(configs_.front().seed, 0x53)) {
  const LinearKvConfig& lead = configs_.front();
  if (lead.tables == 0) throw std::invalid_argument("tables must be > 0");
  for (const LinearKvConfig& c : configs_) {
    if (c.seed != lead.seed || c.max_key != lead.max_key ||
        c.max_payload_coord != lead.max_payload_coord ||
        c.tables != lead.tables || c.payload_budget != lead.payload_budget ||
        c.payload_rows != lead.payload_rows) {
      throw std::invalid_argument(
          "bank geometry classes may differ only in capacity");
    }
    if (c.load_factor <= 0.0 || c.load_factor > 1.0) {
      throw std::invalid_argument("load_factor must be in (0,1]");
    }
    cells_per_table_.push_back(std::max<std::size_t>(
        4, static_cast<std::size_t>(std::ceil(static_cast<double>(c.capacity) /
                                              c.load_factor))));
  }
  cell_stride_ = 1 + payload_geometry_.cell_count();
  payload_rows_ = payload_geometry_.rows();
  key_bytes_ = std::max<std::size_t>(
      1, (std::bit_width(std::max<std::uint64_t>(lead.max_key, 1)) + 7) / 8);
  payload_bytes_ = std::max<std::size_t>(
      1, (std::bit_width(
              std::max<std::uint64_t>(lead.max_payload_coord, 1)) +
          7) /
             8);
  if (key_bytes_ > FingerprintBasis::kPowBytes ||
      payload_bytes_ > FingerprintBasis::kPowBytes) {
    throw std::invalid_argument(
        "bank geometry key/payload space exceeds the fingerprint power tables");
  }
  if (!stage_scatter) return;
  // Staged scatter operands, one sweep per kind over the key / payload
  // coordinate spaces.  Everything here is a pure function of the shared
  // randomness, so a fleet of banks -- and every batch fed to them --
  // reads the same tables.
  key_terms_.resize(2 * max_key_);
  for (std::uint64_t v = 0; v < max_key_; ++v) {
    key_basis_.pow_pair_bytes(v + 1, key_bytes_, &key_terms_[2 * v],
                              &key_terms_[2 * v + 1]);
  }
  const std::uint64_t max_coord = lead.max_payload_coord;
  pay_terms_.resize(2 * max_coord);
  pay_cells_.resize(max_coord * payload_rows_);
  for (std::uint64_t v = 0; v < max_coord; ++v) {
    payload_geometry_.basis().pow_pair_bytes(
        v + 1, payload_bytes_, &pay_terms_[2 * v], &pay_terms_[2 * v + 1]);
    for (std::size_t row = 0; row < payload_rows_; ++row) {
      pay_cells_[v * payload_rows_ + row] =
          static_cast<std::uint32_t>(payload_geometry_.cell_index(row, v));
    }
  }
  buckets_.resize(configs_.size() * max_key_ * tables_);
  for (std::size_t cls = 0; cls < configs_.size(); ++cls) {
    const std::size_t cells = cells_per_table_[cls];
    for (std::uint64_t v = 0; v < max_key_; ++v) {
      std::uint32_t* out = buckets_.data() + (cls * max_key_ + v) * tables_;
      for (std::size_t t = 0; t < tables_; ++t) {
        out[t] = static_cast<std::uint32_t>(table_hashes_[t].bucket(v, cells));
      }
    }
  }
}

// ---- KvTableBank --------------------------------------------------------

KvTableBank::KvTableBank(const LinearKvConfig& config, std::size_t levels)
    : KvTableBank(KvBankGeometry::make({config}), 0, levels) {}

KvTableBank::KvTableBank(std::shared_ptr<const KvBankGeometry> geometry,
                         std::size_t cls, std::size_t levels)
    : geo_(std::move(geometry)), cls_(cls), levels_(levels) {
  if (geo_ == nullptr || cls_ >= geo_->classes()) {
    throw std::invalid_argument("bank needs a geometry covering its class");
  }
  if (levels == 0) throw std::invalid_argument("bank needs levels >= 1");
  if (levels > kMaxLevels) {
    throw std::invalid_argument("bank supports at most 64 levels");
  }
  cells_per_table_ = geo_->cells_per_table(cls_);
  cell_stride_ = geo_->cell_stride();
}

std::uint64_t KvTableBank::slot(std::size_t table, std::uint64_t key) const {
  return table * cells_per_table_ +
         geo_->table_hashes()[table].bucket(key, cells_per_table_);
}

void KvTableBank::grow_table() {
  // Sized off the live entry count (not a doubling chain) so one rebuild
  // after a bulk load -- deserialize_state fills entries_ first -- lands at
  // the right size directly.
  const std::size_t size = std::max<std::size_t>(
      16, std::bit_ceil((entries_.size() + 1) * 2));
  ht_slot_.assign(size, kEmptySlot);
  ht_index_.assign(size, 0);
  const int shift = 64 - std::countr_zero(size);
  const std::size_t mask = size - 1;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    std::size_t pos = static_cast<std::size_t>(
        (entries_[i].slot_id * 0x9e3779b97f4a7c15ULL) >> shift);
    while (ht_slot_[pos] != kEmptySlot) pos = (pos + 1) & mask;
    ht_slot_[pos] = entries_[i].slot_id;
    ht_index_[pos] = static_cast<std::uint32_t>(i);
  }
}

KvTableBank::Entry& KvTableBank::entry_at(std::uint64_t slot_id) {
  if (ht_slot_.empty() || (entries_.size() + 1) * 2 > ht_slot_.size()) {
    grow_table();
  }
  const int shift = 64 - std::countr_zero(ht_slot_.size());
  const std::size_t mask = ht_slot_.size() - 1;
  std::size_t pos =
      static_cast<std::size_t>((slot_id * 0x9e3779b97f4a7c15ULL) >> shift);
  while (ht_slot_[pos] != kEmptySlot && ht_slot_[pos] != slot_id) {
    pos = (pos + 1) & mask;
  }
  if (ht_slot_[pos] == slot_id) return entries_[ht_index_[pos]];
  ht_slot_[pos] = slot_id;
  ht_index_[pos] = static_cast<std::uint32_t>(entries_.size());
  Entry e;
  e.slot_id = slot_id;
  entries_.push_back(std::move(e));
  return entries_.back();
}

OneSparseCell* KvTableBank::row_for_write(Entry& entry, std::size_t j) {
  const std::size_t stride = cell_stride_;
  const std::size_t index = row_index(entry.mask, j);
  const std::uint64_t bit = std::uint64_t{1} << j;
  if ((entry.mask & bit) == 0) {
    // Insert a zeroed row at `index`, keeping the block in level order.
    const auto rows = static_cast<std::size_t>(std::popcount(entry.mask));
    if (rows == entry.cap) {
      const std::uint32_t cap = entry.cap == 0 ? 1 : entry.cap * 2;
      const CellArena::Handle grown =
          arena_.allocate(std::size_t{cap} * stride);  // zero-filled
      if (rows != 0) {
        const OneSparseCell* src = arena_.data(entry.block);
        OneSparseCell* dst = arena_.data(grown);
        std::copy(src, src + index * stride, dst);
        std::copy(src + index * stride, src + rows * stride,
                  dst + (index + 1) * stride);
        arena_.free(entry.block, std::size_t{entry.cap} * stride);
      }
      entry.block = grown;
      entry.cap = cap;
    } else {
      OneSparseCell* cells = arena_.data(entry.block);
      std::copy_backward(cells + index * stride, cells + rows * stride,
                         cells + (rows + 1) * stride);
      std::fill_n(cells + index * stride, stride, OneSparseCell{});
    }
    entry.mask |= bit;
  }
  return arena_.data(entry.block) + index * stride;
}

const KvTableBank::Entry* KvTableBank::find_entry(
    std::uint64_t slot_id) const {
  if (ht_slot_.empty()) return nullptr;
  const int shift = 64 - std::countr_zero(ht_slot_.size());
  const std::size_t mask = ht_slot_.size() - 1;
  std::size_t pos =
      static_cast<std::size_t>((slot_id * 0x9e3779b97f4a7c15ULL) >> shift);
  while (ht_slot_[pos] != kEmptySlot) {
    if (ht_slot_[pos] == slot_id) return &entries_[ht_index_[pos]];
    pos = (pos + 1) & mask;
  }
  return nullptr;
}

void KvTableBank::update(std::uint64_t key, std::int64_t key_delta,
                         std::uint64_t payload_coord,
                         std::int64_t payload_delta, std::size_t jmax) {
  const KvBankGeometry& g = *geo_;
  const LinearKvConfig& config = g.config(cls_);
  if (key >= config.max_key) {
    throw std::out_of_range("kv bank key out of range");
  }
  if (jmax >= levels_) {
    throw std::out_of_range("kv bank level out of range");
  }
  if (key_delta == 0 && payload_delta == 0) return;
  // Stage once for the whole table fan-out: key term pair, payload term
  // pair, payload row buckets (read from the geometry's staged tables when
  // it carries them -- same values either way).
  std::uint64_t kt1 = 0;
  std::uint64_t kt2 = 0;
  const bool staged = g.staged();
  if (key_delta != 0) {
    if (staged) {
      const std::uint64_t* kt = g.key_term(key);
      kt1 = kt[0];
      kt2 = kt[1];
    } else {
      g.key_basis().pow_pair_bytes(key + 1, g.key_bytes(), &kt1, &kt2);
    }
    const std::uint64_t df = field_from_signed(key_delta);
    if (df != 1) {
      kt1 = field_mul(df, kt1);
      kt2 = field_mul(df, kt2);
    }
  }
  std::uint64_t pt1 = 0;
  std::uint64_t pt2 = 0;
  constexpr std::size_t kMaxStagedPayloadRows = 8;
  std::uint32_t pcell_buf[kMaxStagedPayloadRows] = {};
  const std::uint32_t* pcell = pcell_buf;
  const std::size_t payload_rows = g.payload_rows();
  const bool staged_rows = staged || payload_rows <= kMaxStagedPayloadRows;
  if (payload_delta != 0) {
    if (payload_coord >= config.max_payload_coord) {
      throw std::out_of_range("sparse recovery coordinate out of range");
    }
    if (staged) {
      const std::uint64_t* pt = g.pay_term(payload_coord);
      pt1 = pt[0];
      pt2 = pt[1];
      pcell = g.pay_cells(payload_coord);
    } else {
      g.payload_geometry().basis().pow_pair_bytes(
          payload_coord + 1, g.payload_bytes(), &pt1, &pt2);
      if (staged_rows) {
        for (std::size_t row = 0; row < payload_rows; ++row) {
          pcell_buf[row] = static_cast<std::uint32_t>(
              g.payload_geometry().cell_index(row, payload_coord));
        }
      }
    }
    const std::uint64_t df = field_from_signed(payload_delta);
    if (df != 1) {
      pt1 = field_mul(df, pt1);
      pt2 = field_mul(df, pt2);
    }
  }
  // Diff representation: the whole level prefix 0..jmax is recorded by one
  // cell-row write at jmax (levels materialize as suffix sums).
  for (std::size_t t = 0; t < config.tables; ++t) {
    OneSparseCell* cells = row_for_write(entry_at(slot(t, key)), jmax);
    if (key_delta != 0) {
      cells[0].add_term(key, key_delta, kt1, kt2);
    }
    if (payload_delta != 0) {
      if (staged_rows) {
        for (std::size_t row = 0; row < payload_rows; ++row) {
          cells[1 + pcell[row]].add_term(payload_coord, payload_delta, pt1,
                                         pt2);
        }
      } else {
        for (std::size_t row = 0; row < payload_rows; ++row) {
          cells[1 + g.payload_geometry().cell_index(row, payload_coord)]
              .add_term(payload_coord, payload_delta, pt1, pt2);
        }
      }
    }
  }
}

void KvTableBank::update_staged(std::uint64_t key, std::int64_t key_delta,
                                std::uint64_t payload_coord,
                                std::int64_t payload_delta, std::size_t jmax,
                                std::uint64_t kt1, std::uint64_t kt2,
                                std::uint64_t pt1, std::uint64_t pt2) {
  if (key_delta == 0 && payload_delta == 0) return;
  const KvBankGeometry& g = *geo_;
  const std::uint32_t* buckets = g.buckets(cls_, key);
  const std::uint32_t* pcell = g.pay_cells(payload_coord);
  const std::size_t payload_rows = g.payload_rows();
  const std::size_t tables = g.config(cls_).tables;
  for (std::size_t t = 0; t < tables; ++t) {
    OneSparseCell* cells =
        row_for_write(entry_at(t * cells_per_table_ + buckets[t]), jmax);
    if (key_delta != 0) {
      cells[0].add_term(key, key_delta, kt1, kt2);
    }
    if (payload_delta != 0) {
      for (std::size_t row = 0; row < payload_rows; ++row) {
        cells[1 + pcell[row]].add_term(payload_coord, payload_delta, pt1, pt2);
      }
    }
  }
}

void KvTableBank::merge(const KvTableBank& other, std::int64_t sign) {
  if (other.config().seed != config().seed ||
      other.config().max_key != config().max_key ||
      other.cells_per_table_ != cells_per_table_ ||
      other.config().tables != config().tables || other.levels_ != levels_) {
    throw std::invalid_argument("merging incompatible kv banks");
  }
  const std::size_t stride = cell_stride_;
  for (const Entry& theirs : other.entries_) {
    Entry& mine = entry_at(theirs.slot_id);
    const OneSparseCell* src = other.arena_.data(theirs.block);
    for (std::uint64_t m = theirs.mask; m != 0; m &= m - 1, src += stride) {
      OneSparseCell* dst = row_for_write(
          mine, static_cast<std::size_t>(std::countr_zero(m)));
      for (std::size_t c = 0; c < stride; ++c) dst[c].merge(src[c], sign);
    }
  }
}

bool KvTableBank::is_zero() const noexcept {
  for (const Entry& e : entries_) {
    const OneSparseCell* cells = cells_of(e);
    const std::size_t count =
        static_cast<std::size_t>(std::popcount(e.mask)) * cell_stride_;
    for (std::size_t c = 0; c < count; ++c) {
      if (!cells[c].is_zero()) return false;
    }
  }
  return true;
}

std::size_t KvTableBank::decode_levels(const LevelVisitor& on_level) const {
  // The blocks store level DIFFS (see the class comment), so level j's cells
  // are the suffix sums of each entry's rows >= j.  Walking the levels
  // deepest-first, one running accumulator per entry yields every level's
  // values with each stored row added exactly once.  Ordering the entries
  // by depth (descending) makes the entries reaching level j -- depth > j;
  // the rest are zero there -- a prefix of the order that only grows as j
  // falls, so the accumulator, the per-level peel copy and the liveness
  // count all touch that prefix alone.  A level no entry stores a row for
  // has the cells of the level above it (no row added, and an entry joins
  // the prefix exactly at its deepest stored row), so its decode is the
  // previous one, handed to the visitor again without a copy or a peel.
  const std::size_t stride = cell_stride_;
  const std::size_t count = entries_.size();
  std::vector<std::uint32_t> order(count);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return depth_of(entries_[a].mask) >
                            depth_of(entries_[b].mask);
                   });
  std::vector<std::uint32_t> pos_of(count);
  std::uint64_t written = 0;  // levels at least one entry stores a row for
  for (std::size_t p = 0; p < count; ++p) {
    pos_of[order[p]] = static_cast<std::uint32_t>(p);
    written |= entries_[p].mask;
  }
  std::vector<OneSparseCell> acc(count * stride);  // by sweep position
  std::vector<std::uint8_t> live(count);  // acc nonzero, by sweep position
  std::vector<OneSparseCell> work;
  std::optional<std::vector<KvEntry>> decoded{std::in_place};  // empty level
  std::size_t live_entries = 0;
  std::size_t live_levels = 0;
  std::size_t reach = 0;
  for (std::size_t j = levels_; j-- > 0;) {
    if ((written >> j & 1) != 0) {
      while (reach < count && depth_of(entries_[order[reach]].mask) > j) {
        ++reach;
      }
      for (std::size_t p = 0; p < reach; ++p) {
        const Entry& e = entries_[order[p]];
        if ((e.mask >> j & 1) == 0) continue;
        const OneSparseCell* row = cells_of(e) + row_index(e.mask, j) * stride;
        OneSparseCell* sum = acc.data() + p * stride;
        for (std::size_t c = 0; c < stride; ++c) sum[c].merge(row[c], 1);
        const bool now = std::any_of(
            sum, sum + stride,
            [](const OneSparseCell& c) { return !c.is_zero(); });
        live_entries = live_entries + now - live[p];
        live[p] = now;
      }
      work.assign(acc.begin(),
                  acc.begin() + static_cast<std::ptrdiff_t>(reach * stride));
      decoded = peel_level(work, pos_of);
    }
    live_levels += live_entries;
    on_level(j, decoded);
  }
  return live_levels * stride * sizeof(OneSparseCell) +
         sizeof(LinearKvConfig);
}

std::optional<std::vector<KvEntry>> KvTableBank::peel_level(
    std::vector<OneSparseCell>& work,
    const std::vector<std::uint32_t>& pos_of) const {
  // Worklist peeling: every reaching cell is checked once up front, and a
  // peeled key only changes its `tables` slots, so only those are
  // re-checked.  Subtraction is in place on the level's copy (canonical
  // field subtraction and wrapping integer adds), so the peel order cannot
  // change the decoded map.
  const std::size_t stride = cell_stride_;
  const std::size_t payload_cells = stride - 1;
  const std::size_t reach = work.size() / stride;
  const std::size_t tables = config().tables;
  std::vector<KvEntry> found;
  std::vector<std::uint32_t> worklist(reach);
  std::iota(worklist.rbegin(), worklist.rend(), 0u);
  while (!worklist.empty()) {
    const OneSparseCell* cell = work.data() + worklist.back() * stride;
    worklist.pop_back();
    Recovered rec;
    if (classify_cell(cell[0], config().max_key, geo_->key_basis(), &rec) !=
        CellState::kOneSparse) {
      continue;
    }
    // Peeling zeroes the cell's key detector and later subtractions only
    // remove keys, so a consistent level peels each cell at most once.
    // More peels than cells means corrupted state: fail instead of cycling.
    if (found.size() == reach) return std::nullopt;
    KvEntry entry;
    entry.key = rec.coord;
    entry.key_count = rec.value;
    entry.payload.assign(cell + 1, cell + stride);
    OneSparseCell key_part;
    key_part.add(entry.key, entry.key_count, geo_->key_basis());
    for (std::size_t t = 0; t < tables; ++t) {
      // A key live at this level was written at a row >= this level in
      // every table, so each of its slots reaches here.  A slot that does
      // not can only come from a fingerprint false positive; its residual
      // would be nonzero, so the level is undecodable.
      const Entry* e = find_entry(slot(t, entry.key));
      if (e == nullptr) return std::nullopt;
      const std::uint32_t q =
          pos_of[static_cast<std::size_t>(e - entries_.data())];
      if (q >= reach) return std::nullopt;
      OneSparseCell* dst = work.data() + std::size_t{q} * stride;
      dst[0].merge(key_part, -1);
      for (std::size_t i = 0; i < payload_cells; ++i) {
        dst[1 + i].merge(entry.payload[i], -1);
      }
      worklist.push_back(q);
    }
    found.push_back(std::move(entry));
  }
  // Residual check: every cell (key AND payload) must be zero, else the
  // table was overloaded.
  for (const OneSparseCell& c : work) {
    if (!c.is_zero()) return std::nullopt;
  }

  std::sort(found.begin(), found.end(),
            [](const KvEntry& a, const KvEntry& b) { return a.key < b.key; });
  std::vector<KvEntry> out;
  for (auto& e : found) {
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

std::optional<std::vector<Recovered>> KvTableBank::decode_payload(
    const KvEntry& entry) const {
  return geo_->payload_geometry().decode_state(entry.payload);
}

std::size_t KvTableBank::nominal_bytes(const LinearKvConfig& config,
                                       std::size_t levels) noexcept {
  // Per level, tables * cells_per_table dense cells (key detector +
  // embedded payload sketch) plus the config header -- the accounting the
  // space-claim numbers have always used, so they stay comparable across
  // baselines.
  const std::size_t cells_per_table = std::max<std::size_t>(
      4, static_cast<std::size_t>(std::ceil(
             static_cast<double>(config.capacity) / config.load_factor)));
  const std::size_t payload_cells =
      config.payload_rows * 2 * std::max<std::size_t>(config.payload_budget, 1);
  const std::size_t cell_bytes = sizeof(OneSparseCell) * (1 + payload_cells);
  return levels *
         (config.tables * cells_per_table * cell_bytes +
          sizeof(LinearKvConfig));
}

}  // namespace kw
