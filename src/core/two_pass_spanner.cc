#include "core/two_pass_spanner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "engine/processors.h"
#include "engine/stream_engine.h"
#include "stream/weight_classes.h"
#include "util/bit_util.h"
#include "util/random.h"

namespace kw {

void aggregate_batch_entries(std::vector<SpannerBatchEntry>& entries,
                             std::vector<std::uint64_t>& ucoords,
                             std::vector<std::uint64_t>& slot_table,
                             std::vector<std::uint32_t>& slot_ids) {
  const std::size_t table_size = next_pow2(2 * entries.size());
  const int shift = 64 - std::countr_zero(table_size);
  const std::size_t mask = table_size - 1;
  slot_table.assign(table_size, ~std::uint64_t{0});
  slot_ids.resize(table_size);
  ucoords.clear();
  std::size_t unique_count = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    SpannerBatchEntry e = entries[i];
    std::size_t pos =
        static_cast<std::size_t>((e.coord * 0x9e3779b97f4a7c15ULL) >> shift);
    while (slot_table[pos] != ~std::uint64_t{0} &&
           slot_table[pos] != e.coord) {
      pos = (pos + 1) & mask;
    }
    if (slot_table[pos] == ~std::uint64_t{0}) {
      slot_table[pos] = e.coord;
      const auto id = static_cast<std::uint32_t>(unique_count);
      slot_ids[pos] = id;
      e.slot = id;
      ucoords.push_back(e.coord);
      entries[unique_count++] = e;  // in-place compaction: id <= i
    } else if (__builtin_add_overflow(entries[slot_ids[pos]].delta, e.delta,
                                      &entries[slot_ids[pos]].delta)) {
      throw std::overflow_error("spanner batch: edge multiplicity overflow");
    }
  }
  entries.resize(unique_count);
}

namespace {

[[nodiscard]] LinearKvConfig bank_class_config(Vertex n,
                                               const TwoPassConfig& cfg,
                                               unsigned level) {
  LinearKvConfig c;
  c.max_key = n;
  c.max_payload_coord = n;
  const double nd = static_cast<double>(n);
  // Claim 11: terminal trees at level i have |N(T_u)| <= C log n *
  // n^{(i+1)/k} whp; the table must hold that many keys.
  const double bound = std::pow(nd, static_cast<double>(level + 1) / cfg.k) *
                       std::max(1.0, std::log2(nd));
  c.capacity =
      static_cast<std::size_t>(std::ceil(cfg.table_capacity_factor * bound));
  c.tables = cfg.kv_tables;
  c.load_factor = cfg.kv_load_factor;
  c.payload_budget = cfg.table_payload_budget;
  c.payload_rows = cfg.table_payload_rows;
  // One seed for the whole terminal fleet (level classes differ only in
  // capacity): the fleet shares a KvBankGeometry, and sharing randomness
  // across terminals is sound because no step votes or averages across
  // banks -- each bank's decode bound holds by itself and the union bound
  // over the fleet is seed-layout-independent (same argument as the
  // row-shared pass-1 pages).  The historical per-terminal chain was
  // derive_seed(seed, 0x20000 + term_index).
  c.seed = derive_seed(cfg.seed, 0x20000);
  return c;
}

// Y_j ladder length: half-octave rates 2^{-j/2} (default) take twice the
// paper's 2^{-j} levels.
[[nodiscard]] std::size_t y_level_count(Vertex n, const TwoPassConfig& cfg) {
  const std::size_t log_n = ceil_log2(std::max<Vertex>(n, 2));
  return cfg.y_half_octave ? 2 * log_n + 1 : log_n + 1;
}

// Rejects a vertex count whose Y_j ladder outgrows a pass-2 bank's level
// mask, before any O(n) structure is built.
[[nodiscard]] Vertex checked_vertex_count(Vertex n, const TwoPassConfig& cfg) {
  if (y_level_count(n, cfg) > KvTableBank::kMaxLevels) {
    throw std::invalid_argument(
        "spanner n too large: pass-2 banks support at most 64 Y_j levels");
  }
  return n;
}

[[nodiscard]] SparseRecoveryConfig pass1_page_config(Vertex n,
                                                     const TwoPassConfig& cfg,
                                                     unsigned r,
                                                     std::size_t j) {
  SparseRecoveryConfig c;
  c.max_coord = num_pairs(n);
  c.budget = cfg.pass1_budget;
  c.rows = cfg.pass1_rows;
  // One geometry serves the whole page (and, through SpannerGeometry, every
  // instance of a row), so the radix walk tables behind the batched term
  // kernels amortize over every vertex, batch and instance.
  c.full_pow_tables = true;
  // Randomness is a function of (r, j) only -- identical for every vertex,
  // which is what makes Q_j(u) = sum_{v in T_u} S^{i+1}_j(v) a valid sketch.
  c.seed = derive_seed(cfg.seed, 0x1000 + r * 1024 + j);
  return c;
}

}  // namespace

SpannerGeometry::SpannerGeometry(Vertex n_in, const TwoPassConfig& config_in)
    : n(checked_vertex_count(n_in, config_in)),
      config(config_in),
      hierarchy(ClusterHierarchy::sample(n_in, config_in.k, config_in.seed)),
      edge_levels(2 * ceil_log2(std::max<Vertex>(n_in, 2)) + 1),
      vertex_levels(y_level_count(n_in, config_in)),
      edge_level_hash(8, derive_seed(config_in.seed, 0xe1)),
      y_hash(8, derive_seed(config_in.seed, 0xe2)) {
  if (n < 2) throw std::invalid_argument("spanner needs n >= 2");
  if (config.k == 0) throw std::invalid_argument("spanner needs k >= 1");
  if (config.pass1_rows == 0 || config.pass1_rows > kMaxFastRows) {
    throw std::invalid_argument("spanner pass1_rows must be in [1, 4]");
  }
  // Y_j at half-octave rates 2^{-j/2} (default): finer steps than the
  // paper's 2^{-j} sharpen the guarantee that some level isolates <= B
  // neighbors per key.  bench_ablation compares the two ladders.
  const double step = config.y_half_octave ? 0.5 : 1.0;
  y_thresholds.resize(vertex_levels);
  for (std::size_t j = 0; j < vertex_levels; ++j) {
    y_thresholds[j] = static_cast<std::uint64_t>(
        static_cast<double>(kFieldPrime) *
        std::pow(2.0, -step * static_cast<double>(j)));
  }
  const std::size_t levels_r =
      static_cast<std::size_t>(config.k > 1 ? config.k - 1 : 0);
  pages.reserve(levels_r * edge_levels);
  for (unsigned r = 1; r < config.k; ++r) {
    for (std::size_t j = 0; j < edge_levels; ++j) {
      pages.emplace_back(pass1_page_config(n, config, r, j));
    }
  }
  // Per-vertex Y_j level cap: pass 2 historically re-hashed y_level_of per
  // update side (then per instance); each vertex's level is a pure function
  // of the geometry, so one sweep here serves every pass-2 update of every
  // instance built on this geometry.
  y_caps.resize(n);
  for (Vertex a = 0; a < n; ++a) {
    y_caps[a] =
        static_cast<std::uint8_t>(std::min(y_level_of(a), vertex_levels - 1));
  }
  pass1_cell_count =
      config.pass1_rows * 2 * std::max<std::size_t>(config.pass1_budget, 1);
  coord_bytes = std::max<std::size_t>(
      1, (std::bit_width(std::max<std::uint64_t>(num_pairs(n), 1)) + 7) / 8);
  // Shared pass-2 bank geometry: terminal trees exist at levels 0..k-1, one
  // capacity class each, with staged per-vertex scatter operands (key and
  // payload spaces are both the vertex set, so staging is O(n * k) words).
  std::vector<LinearKvConfig> bank_configs;
  bank_configs.reserve(config.k);
  for (unsigned level = 0; level < config.k; ++level) {
    bank_configs.push_back(bank_class_config(n, config, level));
  }
  bank_geo = KvBankGeometry::make(std::move(bank_configs),
                                  /*stage_scatter=*/true);
}

std::size_t SpannerGeometry::y_level_of(Vertex v) const {
  // The Y_j thresholds are not dyadic (half-octave ladder), so this stays a
  // loop; pass 2 only ever reads the precomputed y_caps.
  const std::uint64_t h = y_hash(v);
  std::size_t level = 0;
  while (level + 1 < vertex_levels && h < y_thresholds[level + 1]) {
    ++level;
  }
  return level;
}

TwoPassSpanner::TwoPassSpanner(Vertex n, const TwoPassConfig& config)
    : TwoPassSpanner(SpannerGeometry::make(n, config)) {}

TwoPassSpanner::TwoPassSpanner(std::shared_ptr<const SpannerGeometry> geometry)
    : geo_(std::move(geometry)),
      n_(geo_->n),
      config_(geo_->config),
      edge_levels_(geo_->edge_levels),
      vertex_levels_(geo_->vertex_levels),
      pass1_cell_count_(geo_->pass1_cell_count),
      coord_bytes_(geo_->coord_bytes) {
  pass1_pages_.resize(geo_->pages.size());
}

TwoPassSpanner::TwoPassSpanner(const TwoPassSpanner& other, EmptyCloneTag)
    : geo_(other.geo_),
      n_(other.n_),
      config_(other.config_),
      phase_(other.phase_),
      edge_levels_(other.edge_levels_),
      vertex_levels_(other.vertex_levels_),
      pass1_cell_count_(other.pass1_cell_count_),
      coord_bytes_(other.coord_bytes_),
      forest_(other.forest_),
      terminals_(other.terminals_),
      terminal_of_vertex_(other.terminal_of_vertex_),
      tree_at_level_(other.tree_at_level_) {
  // Pass-1 pages and pass-2 banks materialize lazily, so fresh empty slots
  // ARE the zero sketch state -- a pass-2 clone costs O(terminals) pointers,
  // not a table-fleet construction.
  pass1_pages_.resize(other.pass1_pages_.size());
  if (phase_ == Phase::kPass2) {
    banks_.resize(terminals_.size());
  }
}

void TwoPassSpanner::absorb(std::span<const EdgeUpdate> batch) {
  if (phase_ != Phase::kPass1 && phase_ != Phase::kPass2) {
    throw std::logic_error("TwoPassSpanner: absorb() after finish()");
  }
  check_endpoints(batch, n_, "TwoPassSpanner");
  // The staging and per-pass scatter scratch grow with the batch, about
  // 700 bytes per update (peak RSS 207 -> 218 MiB going from 16,384- to
  // 32,768-update batches on the spanner_skewed shape), so a large engine
  // batch is walked in fixed chunks: exact, because the sketches' state is
  // invariant to batch boundaries.
  constexpr std::size_t kAbsorbChunk = 16384;
  for (std::size_t pos = 0; pos < batch.size(); pos += kAbsorbChunk) {
    // Stage once: pair ids, self-loop filtering, coordinate dedup -- the
    // same shape the KP12 sparsifier hands to pass*_ingest, built
    // internally so engine-driven single-instance runs ride the fused path
    // too.
    staged_entries_.clear();
    for (const EdgeUpdate& u :
         batch.subspan(pos, std::min(kAbsorbChunk, batch.size() - pos))) {
      if (u.u == u.v) continue;
      staged_entries_.push_back(
          {pair_id(u.u, u.v, n_), u.u, u.v, 0, u.delta});
    }
    if (staged_entries_.empty()) continue;
    aggregate_batch_entries(staged_entries_, staged_ucoords_, slot_table_,
                            slot_ids_);
    if (phase_ == Phase::kPass2) {
      pass2_ingest(staged_entries_);
    } else {
      pass1_ingest(staged_entries_, staged_ucoords_);
    }
  }
}

std::unique_ptr<StreamProcessor> TwoPassSpanner::clone_empty() const {
  if (phase_ != Phase::kPass1 && phase_ != Phase::kPass2) return nullptr;
  return std::unique_ptr<StreamProcessor>(
      new TwoPassSpanner(*this, EmptyCloneTag{}));
}

void TwoPassSpanner::merge(StreamProcessor&& other) {
  auto& o = merge_cast<TwoPassSpanner>(other);
  if (o.n_ != n_ || o.config_.seed != config_.seed || o.phase_ != phase_) {
    throw std::invalid_argument(
        "TwoPassSpanner::merge: incompatible instance (n/seed/phase)");
  }
  switch (phase_) {
    case Phase::kPass1: {
      const std::size_t page_cell_count =
          static_cast<std::size_t>(n_) * pass1_cell_count_;
      for (std::size_t idx = 0; idx < pass1_pages_.size(); ++idx) {
        Pass1Page& mine = pass1_pages_[idx];
        const Pass1Page& theirs = o.pass1_pages_[idx];
        if (!o.page_live(theirs)) continue;  // never touched: all zero
        if (!page_live(mine)) {
          // Blocks live in per-instance arenas, so absorbing their page is
          // a copy into a fresh (zero) block -- merging into zeros below
          // lands the identical cells the historical vector move produced.
          mine.cells = page_arena_.allocate(page_cell_count);
          mine.touched = touch_arena_.allocate(n_);
        }
        const OneSparseCell* src = o.page_cells(theirs);
        OneSparseCell* dst = page_cells(mine);
        for (std::size_t c = 0; c < page_cell_count; ++c) {
          dst[c].merge(src[c], 1);
        }
        const char* sflags = o.page_flags(theirs);
        char* dflags = page_flags(mine);
        for (Vertex v = 0; v < n_; ++v) {
          dflags[v] = static_cast<char>(dflags[v] | sflags[v]);
        }
      }
      // Shards each count their own first touch of a (u, r, j) sketch, so
      // summing the counters would double-count; the merged touch set is
      // the ground truth.
      std::size_t touched = 0;
      for (const Pass1Page& page : pass1_pages_) {
        if (!page_live(page)) continue;
        const char* flags = page_flags(page);
        for (Vertex v = 0; v < n_; ++v) touched += flags[v] != 0;
      }
      diagnostics_.pass1_sketches_touched = touched;
      break;
    }
    case Phase::kPass2:
      for (std::size_t t = 0; t < banks_.size(); ++t) {
        if (!o.banks_[t]) continue;  // their terminal untouched: all zero
        if (!banks_[t]) {
          banks_[t] = std::move(o.banks_[t]);
        } else {
          banks_[t]->merge(*o.banks_[t], 1);
        }
      }
      break;
    default:
      throw std::logic_error("TwoPassSpanner::merge: already finished");
  }
}

LinearKvConfig TwoPassSpanner::table_config(unsigned level) const {
  return bank_class_config(n_, config_, level);
}

KvTableBank& TwoPassSpanner::bank_for(std::size_t t) {
  std::unique_ptr<KvTableBank>& bank = banks_[t];
  if (!bank) {
    // Class index == terminal level: the shared geometry carries one
    // capacity class per level, everything else (basis, hashes, staged
    // scatter tables) identical across the fleet.
    bank = std::make_unique<KvTableBank>(geo_->bank_geo, terminals_[t].level,
                                         vertex_levels_);
  }
  return *bank;
}

OneSparseCell* TwoPassSpanner::page_stripe(Pass1Page& page, Vertex keeper) {
  if (!page_live(page)) {
    page.cells =
        page_arena_.allocate(static_cast<std::size_t>(n_) * pass1_cell_count_);
    page.touched = touch_arena_.allocate(n_);
  }
  char* flags = page_flags(page);
  if (flags[keeper] == 0) {
    flags[keeper] = 1;
    ++diagnostics_.pass1_sketches_touched;
  }
  return page_cells(page) + static_cast<std::size_t>(keeper) *
                                pass1_cell_count_;
}

void TwoPassSpanner::validate_entries(
    std::span<const SpannerBatchEntry> entries) const {
  const std::uint64_t max_coord = num_pairs(n_);
  for (const SpannerBatchEntry& e : entries) {
    if (e.u >= n_ || e.v >= n_ || e.u == e.v) {
      throw std::out_of_range("TwoPassSpanner: staged endpoints invalid");
    }
    if (e.coord >= max_coord) {
      throw std::out_of_range("TwoPassSpanner: staged coordinate invalid");
    }
  }
}

void TwoPassSpanner::pass1_ingest(std::span<const SpannerBatchEntry> entries,
                                  std::span<const std::uint64_t> ucoords) {
  TwoPassSpanner* self = this;
  const std::size_t prefix = entries.size();
  pass1_ingest_row({&self, 1}, {&prefix, 1}, entries, ucoords);
}

void TwoPassSpanner::pass1_ingest_row(
    std::span<TwoPassSpanner* const> instances,
    std::span<const std::size_t> prefixes,
    std::span<const SpannerBatchEntry> entries,
    std::span<const std::uint64_t> ucoords) {
  if (instances.empty() || entries.empty()) return;
  if (prefixes.size() != instances.size()) {
    throw std::invalid_argument("pass1_ingest_row: one prefix per instance");
  }
  TwoPassSpanner& lead = *instances.front();
  const SpannerGeometry& geo = *lead.geo_;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (instances[i]->phase_ != Phase::kPass1) {
      throw std::logic_error("not in pass 1");
    }
    if (instances[i]->geo_ != lead.geo_) {
      throw std::invalid_argument(
          "pass1_ingest_row: instances must share one geometry");
    }
    if (prefixes[i] > entries.size()) {
      throw std::out_of_range("pass1_ingest_row: prefix beyond the batch");
    }
    if (i > 0 && prefixes[i] > prefixes[i - 1]) {
      throw std::invalid_argument(
          "pass1_ingest_row: prefixes must be non-increasing");
    }
  }
  lead.validate_entries(entries);
  const std::size_t rows = geo.config.pass1_rows;  // [1, kMaxFastRows]
  const std::size_t edge_levels = geo.edge_levels;
  const std::size_t uniques = ucoords.size();

  // 1. Hierarchy qualification per slot: an entry contributes to level r
  //    iff one endpoint's partner is in C_r, so slots none of whose entries
  //    qualify anywhere never pay for hashing at all (C_r is sampled at
  //    rate n^{-r/k}: most of the batch drops out right here).  Bit b of
  //    qual_mask_[slot] records level r = b + 1; levels beyond the mask
  //    width fall back to "qualified".
  constexpr unsigned kMaskLevels = 8;
  lead.qual_mask_.assign(uniques, 0);
  for (unsigned r = 1; r < geo.config.k; ++r) {
    const char* in_r = geo.hierarchy.in_level[r].data();
    const auto bit = static_cast<std::uint8_t>(
        r <= kMaskLevels ? 1u << (r - 1) : 0xffu);
    for (const SpannerBatchEntry& e : entries) {
      if (in_r[e.u] != 0 || in_r[e.v] != 0) lead.qual_mask_[e.slot] |= bit;
    }
  }

  // 2. Deepest surviving E_j level per qualifying coordinate: one batched
  //    Horner sweep + the bit_width closed form, instead of one hash
  //    evaluation and one compare-loop per update.
  lead.gather_coords_.clear();
  lead.active_slots_.clear();
  for (std::size_t s = 0; s < uniques; ++s) {
    if (lead.qual_mask_[s] == 0) continue;
    lead.active_slots_.push_back(static_cast<std::uint32_t>(s));
    lead.gather_coords_.push_back(ucoords[s]);
  }
  if (lead.active_slots_.empty()) return;
  lead.scratch_hash_.resize(lead.active_slots_.size());
  geo.edge_level_hash.eval_many(lead.gather_coords_, lead.scratch_hash_);
  lead.scratch_jmax_.assign(uniques, 0);
  const auto level_cap = static_cast<std::uint8_t>(edge_levels - 1);
  for (std::size_t i = 0; i < lead.active_slots_.size(); ++i) {
    const std::uint64_t deep = KWiseHash::deepest_level(lead.scratch_hash_[i]);
    lead.scratch_jmax_[lead.active_slots_[i]] =
        deep < level_cap ? static_cast<std::uint8_t>(deep) : level_cap;
  }

  const std::size_t term_digits =
      geo.coord_bytes <= FingerprintBasis::kPowBytes ? geo.coord_bytes : 0;
  for (unsigned r = 1; r < geo.config.k; ++r) {
    if (geo.hierarchy.level_members[r].empty()) continue;  // nothing qualifies
    const auto r_bit = static_cast<std::uint8_t>(
        r <= kMaskLevels ? 1u << (r - 1) : 0xffu);
    // 3. Per-slot record blocks (records for levels 0..jmax, consecutively)
    //    and per-level slot lists (level j's list = this r's qualifying
    //    slots with jmax >= j, in active order).
    lead.block_off_.resize(uniques + 1);
    lead.level_end_.assign(edge_levels + 1, 0);
    std::uint32_t total = 0;
    for (const std::uint32_t s : lead.active_slots_) {
      if ((lead.qual_mask_[s] & r_bit) == 0) continue;
      lead.block_off_[s] = total;
      total += static_cast<std::uint32_t>(lead.scratch_jmax_[s]) + 1;
      // Every level up to jmax contains this slot; count via a difference
      // trick: +1 at level 0, -1 at jmax + 1, prefix-summed below.
      ++lead.level_end_[0];
      --lead.level_end_[static_cast<std::size_t>(lead.scratch_jmax_[s]) + 1];
    }
    if (total == 0) continue;
    for (std::size_t j = 1; j <= edge_levels; ++j) {
      lead.level_end_[j] += lead.level_end_[j - 1];
    }
    // level_end_[j] now holds the length of level j's list; convert to end
    // fences over the flat array and fill.
    for (std::size_t j = 1; j < edge_levels; ++j) {
      lead.level_end_[j] += lead.level_end_[j - 1];
    }
    lead.level_slots_.resize(total);
    {
      // Fill cursors: level j's region is [level_end_[j-1], level_end_[j]).
      std::vector<std::uint32_t>& cursors = lead.slot_ids_;  // reuse scratch
      cursors.resize(edge_levels);
      for (std::size_t j = 0; j < edge_levels; ++j) {
        cursors[j] = j == 0 ? 0 : lead.level_end_[j - 1];
      }
      for (const std::uint32_t s : lead.active_slots_) {
        if ((lead.qual_mask_[s] & r_bit) == 0) continue;
        for (std::size_t j = 0; j <= lead.scratch_jmax_[s]; ++j) {
          lead.level_slots_[cursors[j]++] = s;
        }
      }
    }
    lead.recs_.resize(total);

    // 4. Kernels per (r, j) page over its slot list: basis powers of every
    //    unique coordinate (radix-256 walks over L1-resident tables) and
    //    row buckets (eval_many + the same Lemire reduction bucket() uses).
    //    Each is computed ONCE per unique coordinate per page -- and, since
    //    the kernels read nothing but the SHARED geometry, once for the
    //    whole instance row.
    for (std::size_t j = 0; j < edge_levels; ++j) {
      const std::size_t begin = j == 0 ? 0 : lead.level_end_[j - 1];
      const std::size_t end = lead.level_end_[j];
      if (begin == end) break;  // lists shrink with j: all deeper are empty
      const SparseRecoverySketch& geom = geo.page_geometry(r, j);
      const FingerprintBasis& basis = geom.basis();
      lead.gather_coords_.resize(end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        lead.gather_coords_[i - begin] = ucoords[lead.level_slots_[i]];
      }
      for (std::size_t i = begin; i < end; ++i) {
        PageRec& rec = lead.recs_[lead.block_off_[lead.level_slots_[i]] + j];
        if (term_digits != 0) {
          basis.pow_pair_bytes(lead.gather_coords_[i - begin] + 1,
                               term_digits, &rec.p1, &rec.p2);
        } else {
          basis.pow_pair(lead.gather_coords_[i - begin] + 1, &rec.p1,
                         &rec.p2);
        }
      }
      const std::uint64_t buckets = geom.buckets_per_row();
      lead.scratch_hash_.resize(end - begin);
      for (std::size_t row = 0; row < rows; ++row) {
        geom.row_hash(row).eval_many(lead.gather_coords_, lead.scratch_hash_);
        const auto base = static_cast<std::uint32_t>(row * buckets);
        for (std::size_t i = begin; i < end; ++i) {
          PageRec& rec = lead.recs_[lead.block_off_[lead.level_slots_[i]] + j];
          rec.cell[row] =
              base +
              static_cast<std::uint32_t>(
                  (static_cast<__uint128_t>(lead.scratch_hash_[i - begin]) *
                   buckets) >>
                  61);
        }
      }
    }

    // 5. Scatter, entry-major: side qualification (other endpoint in C_r),
    //    the E_j depth, and the delta-scaled terms are instance-independent,
    //    so each is computed once per (entry, page) and every receiving
    //    instance -- a two-pointer over the non-increasing prefixes --
    //    reuses them; the per-instance work is the page-stripe writes alone.
    //    Adds commute, so the entry-major order lands bit-identical cells
    //    to the historical instance-major sweep.
    const char* in_r = geo.hierarchy.in_level[r].data();
    const std::size_t page_base = (r - 1) * edge_levels;
    std::size_t m = instances.size();
    for (std::size_t p = 0; p < prefixes.front(); ++p) {
      while (m > 0 && prefixes[m - 1] <= p) --m;
      const SpannerBatchEntry& e = entries[p];
      const bool keep_u = in_r[e.v] != 0;  // u keeps the edge iff v in C_r
      const bool keep_v = in_r[e.u] != 0;
      if (!keep_u && !keep_v) continue;
      const std::uint8_t jmax = lead.scratch_jmax_[e.slot];
      const auto delta = static_cast<std::int64_t>(e.delta);
      const std::uint64_t df = field_from_signed(delta);
      const std::uint64_t wsum = static_cast<std::uint64_t>(delta) * e.coord;
      const std::uint32_t block = lead.block_off_[e.slot];
      for (std::size_t j = 0; j <= jmax; ++j) {
        const PageRec& rec = lead.recs_[block + j];
        const std::uint64_t t1 = df == 1 ? rec.p1 : field_mul(df, rec.p1);
        const std::uint64_t t2 = df == 1 ? rec.p2 : field_mul(df, rec.p2);
        for (std::size_t inst = 0; inst < m; ++inst) {
          TwoPassSpanner& sp = *instances[inst];
          Pass1Page* pages = sp.pass1_pages_.data() + page_base;
          for (int side = 0; side < 2; ++side) {
            if (!(side == 0 ? keep_u : keep_v)) continue;
            OneSparseCell* stripe =
                sp.page_stripe(pages[j], side == 0 ? e.u : e.v);
            for (std::size_t row = 0; row < rows; ++row) {
              OneSparseCell& cell = stripe[rec.cell[row]];
              cell.count += delta;
              cell.coord_sum += wsum;
              cell.fp1 = field_add(cell.fp1, t1);
              cell.fp2 = field_add(cell.fp2, t2);
            }
          }
        }
      }
    }
  }
}

void TwoPassSpanner::note_augmented(const Edge& e) {
  if (!config_.augmented) return;
  augmented_.try_emplace({std::min(e.u, e.v), std::max(e.u, e.v)}, e.weight);
}

std::optional<Connector> TwoPassSpanner::sketch_connector(
    unsigned level, const std::vector<Vertex>& members) {
  const std::unordered_set<Vertex> member_set(members.begin(), members.end());
  // Scan E_j levels from sparsest to densest; the first nonempty decodable
  // support yields the parent and witness (Algorithm 1 lines 11-18).
  acc_.resize(pass1_cell_count_);
  for (std::size_t j = edge_levels_; j-- > 0;) {
    Pass1Page& page = page_at(level + 1, j);
    if (!page_live(page)) continue;  // page never touched: all zero
    std::fill(acc_.begin(), acc_.end(), OneSparseCell{});
    bool any = false;
    const char* flags = page_flags(page);
    const OneSparseCell* cells = page_cells(page);
    // Sum per member OCCURRENCE (duplicate copies fold twice), exactly like
    // the historical per-key merge; an untouched member's stripe is zero
    // and skipping it keeps `any` equal to "some member had a materialized
    // sketch".
    for (const Vertex v : members) {
      if (flags[v] == 0) continue;
      any = true;
      const OneSparseCell* stripe =
          cells + static_cast<std::size_t>(v) * pass1_cell_count_;
      for (std::size_t c = 0; c < pass1_cell_count_; ++c) {
        acc_[c].merge(stripe[c], 1);
      }
    }
    if (!any) continue;  // all-zero sum: nothing at this sampling level
    const auto decoded =
        geo_->page_geometry(level + 1, j).decode_state(acc_);
    if (!decoded.has_value()) {
      ++diagnostics_.pass1_scan_failures;
      continue;  // overloaded level; keep descending (denser levels below
                 // will also fail, but a success may still appear)
    }
    if (decoded->empty()) continue;
    // Every decoded coordinate is an edge (a, b) with a in T_u (sketch
    // owner side) and b in C_{level+1}.  Pick the first orientable one.
    for (const auto& rec : *decoded) {
      const auto [x, y] = pair_from_id(rec.coord, n_);
      note_augmented({x, y, 1.0});
      Connector c;
      if (geo_->hierarchy.contains(level + 1, y) && member_set.contains(x)) {
        c.parent = y;
        c.witness = {x, y, 1.0};
        return c;
      }
      if (geo_->hierarchy.contains(level + 1, x) && member_set.contains(y)) {
        c.parent = x;
        c.witness = {y, x, 1.0};
        return c;
      }
    }
    // Decoded edges were not orientable (should not happen): treat as scan
    // failure and continue.
    ++diagnostics_.pass1_scan_failures;
  }
  return std::nullopt;
}

void TwoPassSpanner::finish_pass1() {
  if (phase_ != Phase::kPass1) throw std::logic_error("not in pass 1");
  forest_.emplace(geo_->hierarchy);
  forest_->build([this](Vertex /*u*/, unsigned level,
                        const std::vector<Vertex>& members) {
    return sketch_connector(level, members);
  });
  diagnostics_.terminals_per_level = forest_->terminals_per_level();

  prepare_pass2_structures();
  // Pass-1 pages are dead weight from here on; a real streaming device
  // would reuse this memory for the pass-2 tables.  The touched-byte
  // accounting matches the historical lazy map: one sketch-sized allocation
  // per (u, r, j) an update actually landed in.
  pass1_touched_bytes_ =
      diagnostics_.pass1_sketches_touched *
      (pass1_cell_count_ * sizeof(OneSparseCell) +
       sizeof(SparseRecoveryConfig));
  for (Pass1Page& page : pass1_pages_) page = Pass1Page{};
  page_arena_.reset();  // O(1): every page block dropped at once
  touch_arena_.reset();
  phase_ = Phase::kPass2;
}

void TwoPassSpanner::prepare_pass2_structures() {
  terminals_ = forest_->terminals();
  // Invert the member lists into the (level, v) -> tree table behind the
  // O(1) is_member: a vertex belongs to at most one tree per level, so the
  // inversion is collision-free.
  tree_at_level_.assign(static_cast<std::size_t>(config_.k + 1) * n_, kNoTree);
  for (std::size_t t = 0; t < terminals_.size(); ++t) {
    const std::size_t base =
        static_cast<std::size_t>(terminals_[t].level) * n_;
    for (const Vertex v : forest_->terminal_members(terminals_[t])) {
      tree_at_level_[base + v] = static_cast<std::uint32_t>(t);
    }
  }
  // The H^u_* banks stay null until the first pass-2 update lands in them
  // (bank_for): the historical path eagerly built terminals * vertex_levels
  // tables -- hash families, fingerprint bases and all -- before the first
  // pass-2 byte arrived, which was the between-pass wall.
  banks_.clear();
  banks_.resize(terminals_.size());
  // Flat (level, v) -> terminal index map: levels <= k, so (k + 1) * n
  // slots replace the historical unordered_map probes.
  terminal_of_vertex_.assign(n_, 0);
  std::vector<std::uint32_t> term_index(
      static_cast<std::size_t>(config_.k + 1) * n_, 0);
  for (std::size_t t = 0; t < terminals_.size(); ++t) {
    term_index[static_cast<std::size_t>(terminals_[t].level) * n_ +
               terminals_[t].v] = static_cast<std::uint32_t>(t);
  }
  for (Vertex a = 0; a < n_; ++a) {
    const CopyRef tp = forest_->terminal_parent_of(a);
    terminal_of_vertex_[a] =
        term_index[static_cast<std::size_t>(tp.level) * n_ + tp.v];
  }
}

void TwoPassSpanner::pass2_ingest(std::span<const SpannerBatchEntry> entries) {
  TwoPassSpanner* self = this;
  const std::size_t prefix = entries.size();
  pass2_ingest_row({&self, 1}, {&prefix, 1}, entries);
}

void TwoPassSpanner::pass2_ingest_row(
    std::span<TwoPassSpanner* const> instances,
    std::span<const std::size_t> prefixes,
    std::span<const SpannerBatchEntry> entries) {
  if (instances.empty() || entries.empty()) return;
  if (prefixes.size() != instances.size()) {
    throw std::invalid_argument("pass2_ingest_row: one prefix per instance");
  }
  TwoPassSpanner& lead = *instances.front();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (instances[i]->phase_ != Phase::kPass2) {
      throw std::logic_error("not in pass 2");
    }
    if (instances[i]->geo_ != lead.geo_) {
      throw std::invalid_argument(
          "pass2_ingest_row: instances must share one geometry");
    }
    if (prefixes[i] > entries.size()) {
      throw std::out_of_range("pass2_ingest_row: prefix beyond the batch");
    }
    if (i > 0 && prefixes[i] > prefixes[i - 1]) {
      throw std::invalid_argument(
          "pass2_ingest_row: prefixes must be non-increasing");
    }
  }
  lead.validate_entries(entries);
  const SpannerGeometry& geo = *lead.geo_;
  // Every SpannerGeometry stages its bank geometry's scatter operands.
  const KvBankGeometry& bg = *geo.bank_geo;
  // Bank-major scatter.  An entry-major walk pays the full dependent-load
  // chain (terminal route -> bank -> hash probe -> entry -> cell block) for
  // EVERY (entry, instance) pair, and consecutive pairs land in unrelated
  // banks, so the whole pass runs at memory latency.  Instead the batch is
  // gathered into (bank, key, coord, delta, jmax) touches first, then
  // grouped by bank with a STABLE counting sort and applied group by group:
  // one bank's hash table and cell blocks serve all its touches back to
  // back while they are hot.  Bit-identity with the per-entry order holds
  // because the sort is stable (a bank sees its own touches in sequential
  // order, so entry first-touch order -- and with it the serialized state
  // -- is unchanged) and cell adds are commutative exact field/wrapping
  // additions, so cross-bank reordering cannot change any value.
  const std::uint8_t* y_caps = geo.y_caps.data();
  std::vector<std::size_t> bank_off(instances.size() + 1, 0);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    bank_off[i + 1] = bank_off[i] + instances[i]->terminals_.size();
  }
  struct BankTouch {
    std::uint32_t bank;
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t jmax;
    std::int64_t delta;
  };
  std::vector<BankTouch> touches;
  std::vector<BankTouch> grouped;
  std::vector<std::uint32_t> group_pos(bank_off.back());
  // Chunked so the touch buffer stays cache-resident; the (p, m) cursor
  // carries across chunks, preserving the two-pointer prefix walk.
  constexpr std::size_t kChunkTouches = std::size_t{1} << 16;
  touches.reserve(kChunkTouches + 2 * instances.size());
  std::size_t m = instances.size();
  const std::size_t total = prefixes.front();
  std::size_t p = 0;
  while (p < total) {
    touches.clear();
    while (p < total && touches.size() < kChunkTouches) {
      while (m > 0 && prefixes[m - 1] <= p) --m;
      const SpannerBatchEntry& e = entries[p];
      const auto delta = static_cast<std::int64_t>(e.delta);
      for (int side = 0; side < 2; ++side) {
        const Vertex a = side == 0 ? e.u : e.v;
        const Vertex b = side == 0 ? e.v : e.u;
        const std::uint32_t jmax = y_caps[a];
        for (std::size_t i = 0; i < m; ++i) {
          TwoPassSpanner& sp = *instances[i];
          const std::uint32_t t = sp.terminal_of_vertex_[a];
          if (sp.is_member(t, b)) continue;  // b in T_u: skip
          touches.push_back({static_cast<std::uint32_t>(bank_off[i] + t), a,
                             b, jmax, delta});
        }
      }
      ++p;
    }
    std::fill(group_pos.begin(), group_pos.end(), 0);
    for (const BankTouch& tc : touches) ++group_pos[tc.bank];
    std::uint32_t run = 0;
    for (std::uint32_t& c : group_pos) {
      const std::uint32_t count = c;
      c = run;
      run += count;
    }
    grouped.resize(touches.size());
    for (const BankTouch& tc : touches) grouped[group_pos[tc.bank]++] = tc;
    std::uint32_t cur_bank = std::numeric_limits<std::uint32_t>::max();
    KvTableBank* bank = nullptr;
    for (const BankTouch& tc : grouped) {
      if (tc.bank != cur_bank) {
        cur_bank = tc.bank;
        const std::size_t i = static_cast<std::size_t>(
            std::upper_bound(bank_off.begin(), bank_off.end(), tc.bank) -
            bank_off.begin() - 1);
        bank = &instances[i]->bank_for(tc.bank - bank_off[i]);
      }
      const std::uint64_t* kt = bg.key_term(tc.b);
      const std::uint64_t* pt = bg.pay_term(tc.a);
      std::uint64_t kt1 = kt[0];
      std::uint64_t kt2 = kt[1];
      std::uint64_t pt1 = pt[0];
      std::uint64_t pt2 = pt[1];
      const std::uint64_t df = field_from_signed(tc.delta);
      if (df != 1) {
        kt1 = field_mul(df, kt1);
        kt2 = field_mul(df, kt2);
        pt1 = field_mul(df, pt1);
        pt2 = field_mul(df, pt2);
      }
      bank->update_staged(/*key=*/tc.b, tc.delta, /*payload_coord=*/tc.a,
                          tc.delta, tc.jmax, kt1, kt2, pt1, pt2);
    }
  }
}

std::size_t TwoPassSpanner::begin_finish() {
  if (phase_ != Phase::kPass2) throw std::logic_error("not in pass 2");
  phase_ = Phase::kDone;
  finish_slots_.assign(terminals_.size(), TerminalDecode{});
  return terminals_.size();
}

void TwoPassSpanner::decode_terminal(std::size_t t) {
  // Terminal copies: recover one edge per outside neighbor.  For each key v
  // take the sparsest Y_j level at which the embedded neighborhood sketch
  // decodes (Algorithm 2 lines 23-33).  A terminal whose bank was never
  // materialized saw no pass-2 update: every level decodes empty, exactly
  // like the historical untouched tables.
  //
  // Reads banks_[t] (const decode) and shared immutable geometry; writes
  // finish_slots_[t] only -- disjoint across terminals, hence lane-safe.
  // The bank decodes all levels in one deepest-first sweep, which also
  // yields its touched-bytes count.
  if (!banks_[t]) return;
  const KvTableBank& bank = *banks_[t];
  TerminalDecode& slot = finish_slots_[t];
  std::unordered_set<Vertex> resolved;
  std::unordered_set<Vertex> seen;  // keys observed at any level
  slot.touched_bytes = bank.decode_levels(
      [&](std::size_t, const std::optional<std::vector<KvEntry>>& decoded) {
        if (!decoded.has_value()) {
          ++slot.undecodable;
          return;
        }
        for (const auto& entry : *decoded) {
          const auto v = static_cast<Vertex>(entry.key);
          seen.insert(v);
          if (resolved.contains(v)) continue;
          const auto support = bank.decode_payload(entry);
          if (!support.has_value() || support->empty()) continue;
          const auto w = static_cast<Vertex>(support->front().coord);
          slot.edges.emplace_back(w, v);
          resolved.insert(v);
        }
      });
  for (const Vertex v : seen) {
    if (!resolved.contains(v)) ++slot.unrecovered;
  }
}

void TwoPassSpanner::complete_finish() {
  std::map<std::pair<Vertex, Vertex>, double> edges;
  auto add = [&edges](Vertex a, Vertex b, double w) {
    edges.try_emplace({std::min(a, b), std::max(a, b)}, w);
  };

  // Non-terminal copies contribute their witness edges (pass-1 output).
  for (const auto& e : forest_->witness_edges()) {
    add(e.u, e.v, e.weight);
    note_augmented(e);
  }

  // Fold the per-terminal decodes in terminal order.  `edges` and
  // `augmented_` dedup by try_emplace and every recovered edge carries
  // weight 1.0, so the fold is bit-identical to the historical interleaved
  // per-terminal loop regardless of how the decodes were scheduled.
  std::size_t bank_touched_bytes = 0;
  for (std::size_t t = 0; t < finish_slots_.size(); ++t) {
    const TerminalDecode& slot = finish_slots_[t];
    diagnostics_.pass2_tables_undecodable += slot.undecodable;
    diagnostics_.pass2_neighbors_unrecovered += slot.unrecovered;
    bank_touched_bytes += slot.touched_bytes;
    for (const auto& [w, v] : slot.edges) {
      add(w, v, 1.0);
      note_augmented({w, v, 1.0});
    }
  }
  finish_slots_.clear();
  finish_slots_.shrink_to_fit();

  TwoPassResult result;
  Graph spanner(n_);
  for (const auto& [key, w] : edges) {
    spanner.add_edge(key.first, key.second, w);
  }
  result.spanner = std::move(spanner);
  if (config_.augmented) {
    result.augmented_edges.reserve(augmented_.size());
    for (const auto& [key, w] : augmented_) {
      result.augmented_edges.push_back({key.first, key.second, w});
    }
  }
  result.diagnostics = diagnostics_;

  // Nominal space: the dense footprint of every sketch the algorithm
  // declares (pass 1: n * (k-1) * edge_levels copies of SKETCH_B; pass 2:
  // the declared table fleet -- a closed form per terminal, so the claim
  // covers never-materialized banks too).
  if (config_.k > 1) {
    result.nominal_bytes = static_cast<std::size_t>(n_) * (config_.k - 1) *
                           edge_levels_ *
                           geo_->page_geometry(1, 0).nominal_bytes();
  }
  result.touched_bytes = pass1_touched_bytes_ + bank_touched_bytes;
  for (std::size_t t = 0; t < terminals_.size(); ++t) {
    result.nominal_bytes += KvTableBank::nominal_bytes(
        table_config(terminals_[t].level), vertex_levels_);
  }
  result_ = std::move(result);
}

void TwoPassSpanner::finish() {
  const std::size_t terminal_count = begin_finish();
  for (std::size_t t = 0; t < terminal_count; ++t) decode_terminal(t);
  complete_finish();
}

TwoPassResult TwoPassSpanner::take_result() {
  if (!result_.has_value()) {
    throw std::logic_error(
        "TwoPassSpanner: result unavailable (finish() not reached or result "
        "already taken)");
  }
  TwoPassResult out = std::move(*result_);
  result_.reset();
  return out;
}

const ClusterForest& TwoPassSpanner::forest() const {
  if (!forest_.has_value()) {
    throw std::logic_error("forest unavailable before finish_pass1()");
  }
  return *forest_;
}

std::span<const OneSparseCell> TwoPassSpanner::pass1_cells(
    unsigned r, std::size_t j) const {
  if (r == 0 || r >= config_.k || j >= edge_levels_) {
    throw std::out_of_range("pass1_cells: no such page");
  }
  const Pass1Page& page = pass1_pages_[(r - 1) * edge_levels_ + j];
  if (!page_live(page)) return {};
  return {page_cells(page), static_cast<std::size_t>(n_) * pass1_cell_count_};
}

TwoPassResult TwoPassSpanner::run(const DynamicStream& stream) {
  if (stream.n() != n_) throw std::invalid_argument("stream size mismatch");
  StreamEngine::run_single(*this, stream);
  return take_result();
}

WeightedSpannerResult weighted_two_pass_spanner(const DynamicStream& stream,
                                                const TwoPassConfig& config,
                                                double wmin, double wmax,
                                                double class_eps) {
  const WeightClassPartition partition(wmin, wmax, class_eps);
  // One spanner instance per weight class, all riding the same two physical
  // passes: a demux classifies each update once and routes it to its class.
  std::vector<TwoPassSpanner> instances;
  instances.reserve(partition.num_classes());
  for (std::size_t c = 0; c < partition.num_classes(); ++c) {
    TwoPassConfig cc = config;
    cc.seed = derive_seed(config.seed, 0x77000 + c);
    instances.emplace_back(stream.n(), cc);
  }
  std::vector<StreamProcessor*> lanes;
  lanes.reserve(instances.size());
  for (auto& instance : instances) lanes.push_back(&instance);
  DemuxProcessor demux(std::move(lanes), [&partition](const EdgeUpdate& upd) {
    return partition.class_of(upd.weight);
  });
  StreamEngine engine;
  engine.attach(demux);
  (void)engine.run(stream);

  WeightedSpannerResult out;
  std::map<std::pair<Vertex, Vertex>, double> edges;
  for (std::size_t c = 0; c < instances.size(); ++c) {
    TwoPassResult r = instances[c].take_result();
    // Upper representative keeps d_H >= d_G (H's weights dominate true
    // weights), costing a (1+eps) factor in the stretch bound.
    const double w = partition.representative(c) * (1.0 + class_eps);
    for (const auto& e : r.spanner.edges()) {
      const auto key = std::make_pair(std::min(e.u, e.v), std::max(e.u, e.v));
      auto [it, inserted] = edges.try_emplace(key, w);
      if (!inserted && w < it->second) it->second = w;
    }
    out.per_class.push_back(r.diagnostics);
    out.nominal_bytes += r.nominal_bytes;
  }
  Graph g(stream.n());
  for (const auto& [key, w] : edges) g.add_edge(key.first, key.second, w);
  out.spanner = std::move(g);
  return out;
}

}  // namespace kw
