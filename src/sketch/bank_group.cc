#include "sketch/bank_group.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "util/bit_util.h"
#include "util/hot_dispatch.h"
#include "util/random.h"

namespace kw {

BankGroup::BankGroup(std::size_t vertices, const BankGroupConfig& config)
    : max_coord_(config.max_coord),
      instances_(config.instances),
      groups_(config.seeds.size()),
      vertices_(vertices),
      levels_(ceil_log2(std::max<std::uint64_t>(config.max_coord, 2)) + 2),
      seeds_(config.seeds) {
  if (config.instances == 0) {
    throw std::invalid_argument("instances must be positive");
  }
  if (groups_ == 0) {
    throw std::invalid_argument("bank group needs at least one seed");
  }
  // Radix-256 digit count covering every term exponent (coord + 1 <=
  // max_coord), so the batched term walk can run a fixed, branch-free
  // number of iterations over L1-resident tables.
  term_bytes_ = std::max<std::size_t>(
      1, (std::bit_width(std::max<std::uint64_t>(max_coord_, 1)) + 7) / 8);
  bases_.reserve(groups_);
  hashes_.reserve(groups_ * instances_);
  for (std::size_t g = 0; g < groups_; ++g) {
    // Per-group derivation chain (basis at 0x10b, HashFamily at 0x10a with
    // per-instance 0x9000 + i): group g's cells depend only on seeds_[g].
    bases_.emplace_back(derive_seed(seeds_[g], 0x10b));
    const std::uint64_t family_seed = derive_seed(seeds_[g], 0x10a);
    for (std::size_t i = 0; i < instances_; ++i) {
      hashes_.emplace_back(/*independence=*/8, derive_seed(family_seed,
                                                           0x9000 + i));
    }
  }
  cells_.resize(vertices * cells_per_vertex());
}

namespace {
// Chunk bound keeping staged indices inside 32 bits with plenty of slack;
// engine batches are at most a few hundred thousand updates, raw callers
// may pass arbitrarily large spans.
constexpr std::size_t kIngestChunk = std::size_t{1} << 20;
constexpr std::uint32_t kEmptyIndex = ~std::uint32_t{0};
}  // namespace

void BankGroup::check_pairs(std::span<const BankPairUpdate> batch) const {
  for (const BankPairUpdate& u : batch) {
    if (u.delta == 0) continue;
    if (u.lo >= vertices_ || u.hi >= vertices_ || u.lo == u.hi) {
      throw std::out_of_range("sketch bank pair endpoints invalid");
    }
    if (u.coord >= max_coord_) {
      throw std::out_of_range("sketch bank coordinate out of range");
    }
  }
}

void BankGroup::ingest_pairs(std::span<const BankPairUpdate> batch) {
  ingest_pairs(batch, 0, groups_);
}

void BankGroup::ingest_pairs(std::span<const BankPairUpdate> batch,
                             std::size_t group_first,
                             std::size_t group_count) {
  if (group_first > groups_ || group_count > groups_ - group_first) {
    throw std::out_of_range("bank group range out of range");
  }
  // Validate the WHOLE span before any cell is touched, so a bad entry in a
  // later chunk cannot leave the bank partially updated (the all-or-nothing
  // contract batched callers rely on).
  check_pairs(batch);
  for (std::size_t pos = 0; pos < batch.size(); pos += kIngestChunk) {
    const auto chunk = batch.subspan(pos, std::min(kIngestChunk,
                                                   batch.size() - pos));
    staged_.assign(chunk.begin(), chunk.end());
    ingest_staged(staged_, /*pairs=*/true, group_first,
                  group_first + group_count);
  }
}

void BankGroup::ingest_pairs_in_place(std::span<BankPairUpdate> batch) {
  check_pairs(batch);
  for (std::size_t pos = 0; pos < batch.size(); pos += kIngestChunk) {
    ingest_staged(batch.subspan(pos, std::min(kIngestChunk,
                                              batch.size() - pos)),
                  /*pairs=*/true, 0, groups_);
  }
}

void BankGroup::ingest_updates(std::span<const BankVertexUpdate> batch) {
  // Whole-span validation first; see ingest_pairs.
  for (const BankVertexUpdate& u : batch) {
    if (u.delta == 0) continue;
    if (u.vertex >= vertices_) {
      throw std::out_of_range("sketch bank vertex out of range");
    }
    if (u.coord >= max_coord_) {
      throw std::out_of_range("sketch bank coordinate out of range");
    }
  }
  for (std::size_t pos = 0; pos < batch.size(); pos += kIngestChunk) {
    const std::size_t len = std::min(kIngestChunk, batch.size() - pos);
    staged_.clear();
    staged_.reserve(len);
    // Single-vertex updates stage as pairs with hi == lo; the scatter reads
    // only the lo side.
    for (const BankVertexUpdate& u : batch.subspan(pos, len)) {
      staged_.push_back({u.vertex, u.vertex, u.coord, u.delta});
    }
    ingest_staged(staged_, /*pairs=*/false, 0, groups_);
  }
}

namespace {

// The current group's coordinate powers, once per UNIQUE coordinate: two
// branch-free radix-256 power-table walks (r1/r2 chains interleaved, one
// basis's tables L1-hot for the whole sweep), landed in recs[slot].
KW_TARGET_CLONES void slot_pows_kernel(const FingerprintBasis& basis,
                                       const std::uint64_t* ucoords,
                                       std::size_t uniques,
                                       std::size_t term_bytes,
                                       BankGroup::GroupRec* recs) {
  const bool fixed = term_bytes <= FingerprintBasis::kPowBytes;
  for (std::size_t slot = 0; slot < uniques; ++slot) {
    std::uint64_t p1, p2;
    if (fixed) {
      basis.pow_pair_bytes(ucoords[slot] + 1, term_bytes, &p1, &p2);
    } else {
      basis.pow_pair(ucoords[slot] + 1, &p1, &p2);
    }
    recs[slot].t1 = p1;
    recs[slot].t2 = p2;
  }
}

// Expands the per-slot powers and levels in recs[0, uniques) into the
// current group's per-update scatter records, in place: walking updates
// from the back, update s reads recs[slots[s]] before anything at or below
// s is overwritten, because slots are numbered in first-use order (slots[s]
// <= s).  The delta multiply is skipped exactly for unit deltas
// (field_mul(1, x) == x), and the group-invariant operands are copied
// alongside so the scatter reads ONE packed slot per update.
KW_TARGET_CLONES void build_recs_kernel(const BankPairUpdate* staged,
                                        const std::uint32_t* slots,
                                        std::size_t count,
                                        BankGroup::GroupRec* recs) {
  for (std::size_t s = count; s-- > 0;) {
    const BankPairUpdate& u = staged[s];
    const BankGroup::GroupRec slot = recs[slots[s]];
    std::uint64_t p1 = slot.t1;
    std::uint64_t p2 = slot.t2;
    const std::uint64_t df = field_from_signed(u.delta);
    if (df != 1) {
      p1 = field_mul(df, p1);
      p2 = field_mul(df, p2);
    }
    BankGroup::GroupRec& r = recs[s];
    r.t1 = p1;
    r.t2 = p2;
    r.wsum = static_cast<std::uint64_t>(u.delta) * u.coord;
    r.delta = u.delta;
    std::memcpy(r.lev, slot.lev, 8);
  }
}

struct ScatterArgs {
  const BankGroup::GroupRec* recs;   // staged order (lo-sorted)
  const std::uint32_t* lo_end;       // per-vertex fences into recs
  const std::uint32_t* hi_postings;  // staged indices sorted by hi endpoint
  const std::uint32_t* hi_end;       // per-vertex fences (null: no hi side)
  OneSparseCell* cells;
  BankGroup::LazyCell* acc;  // instances x level_count grid, kept zeroed
  std::size_t vertices, groups, group, instances, level_count;
};

// Stripe prefetch distance and depth of the vertex-grouped scatter: while
// vertex v is bucketed, the first kPrefetchLines cache lines of every
// instance run of vertex v + kPrefetchAhead (same group) are requested.
// Consecutive stripes of one group sit a whole super-stripe apart (tens of
// KB at AGM geometry), so without this every stripe visit is a cache and
// TLB miss that the hardware prefetchers never predict.  The first lines
// suffice: the suffix sweep writes cells [0..deepest] and deepest is a
// geometric level, ~4 cells per run on average.  It is a read prefetch
// (prefetcht0): a write-intent hint compiles to the same instruction in
// both KW_TARGET_CLONES clones, since x86-64-v3 does not include PRFCHW,
// and an inline-asm prefetchw measured no faster on forest_churn.
constexpr std::size_t kPrefetchAhead = 8;
constexpr std::size_t kPrefetchLines = 3;
constexpr std::size_t kCacheLine = 64;

// Byte-wise max of two words whose bytes are all below 0x80 (a level is
// at most 65): per byte, (a | 0x80) - b keeps its high bit iff a >= b, and
// never borrows across bytes.
constexpr std::uint64_t byte_max(std::uint64_t a, std::uint64_t b) {
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  const std::uint64_t keep_a = ((((a | kHigh) - b) & kHigh) >> 7) * 0xFF;
  return (a & keep_a) | (b & ~keep_a);
}

// Vertex-grouped scatter of one group's contributions: per vertex, bucket
// every touching update by its exact deepest level (one accumulator touch
// per instance, no variable-length prefix loop), then one suffix sweep per
// instance lands the bucket sums in cells [0..deepest of that instance] --
// bit-identical to per-update add_run prefix writes because cell adds
// commute and the lazy 128-bit fingerprint sums reduce to the same
// canonical residues.  Buckets above an instance's own deepest level were
// never written for this vertex, so they add nothing and are skipped.  The
// lo side streams recs sequentially (staged order IS lo order); only the hi
// side gathers.  INSTANCES > 0 fixes the instance count at compile time
// (the ubiquitous 4 gets fully unrolled inner loops); 0 reads it from the
// args at runtime (at most 8, the packed record's level slots).  The
// deepest level per instance is tracked as one byte-wise max over each
// record's packed level word, which keeps the bucket loop's registers free
// for the accumulator adds.
template <int INSTANCES>
KW_TARGET_CLONES void scatter_kernel(const ScatterArgs& a) {
  const std::size_t instances = INSTANCES > 0 ? INSTANCES : a.instances;
  const std::size_t cps = instances * a.level_count;
  const std::size_t run_bytes = a.level_count * sizeof(OneSparseCell);
  const std::uint64_t lane_mask = ~std::uint64_t{0} >> (64 - 8 * instances);
  const auto levels_word = [](const BankGroup::GroupRec& r) {
    std::uint64_t word;
    std::memcpy(&word, r.lev, 8);
    return word;
  };
  // Vertex v's postings: recs [lo_begin, lo_fence) and hi_postings
  // [hi_begin, hi_fence).
  struct Fences {
    std::size_t lo_begin, lo_fence, hi_begin, hi_fence;
    [[nodiscard]] bool empty() const {
      return lo_begin == lo_fence && hi_begin == hi_fence;
    }
  };
  const auto fences = [&a](std::size_t v) {
    return Fences{v == 0 ? 0 : a.lo_end[v - 1], a.lo_end[v],
                  a.hi_end == nullptr || v == 0 ? 0 : a.hi_end[v - 1],
                  a.hi_end == nullptr ? 0 : a.hi_end[v]};
  };
  for (std::size_t v = 0; v < a.vertices; ++v) {
    const std::size_t ahead = v + kPrefetchAhead;
    if (ahead < a.vertices && !fences(ahead).empty()) {
      const char* next = reinterpret_cast<const char*>(
          a.cells + (ahead * a.groups + a.group) * cps);
      for (std::size_t inst = 0; inst < instances; ++inst) {
        for (std::size_t line = 0; line < kPrefetchLines; ++line) {
          __builtin_prefetch(next + inst * run_bytes + line * kCacheLine);
        }
      }
    }
    const Fences f = fences(v);
    if (f.empty()) continue;
    // Deepest bucket written per instance, one byte each (lanes past
    // `instances` masked off).
    std::uint64_t deepest = 0;
    for (std::size_t idx = f.lo_begin; idx < f.lo_fence; ++idx) {
      const BankGroup::GroupRec& r = a.recs[idx];
      for (std::size_t inst = 0; inst < instances; ++inst) {
        const std::uint8_t j = r.lev[inst];
        BankGroup::LazyCell& cell = a.acc[inst * a.level_count + j];
        cell.count += r.delta;
        cell.coord_sum += r.wsum;
        BankGroup::LazyCell::add_term(cell.fp1_lo, cell.fp1_hi, r.t1);
        BankGroup::LazyCell::add_term(cell.fp2_lo, cell.fp2_hi, r.t2);
      }
      deepest = byte_max(deepest, levels_word(r) & lane_mask);
    }
    for (std::size_t p = f.hi_begin; p < f.hi_fence; ++p) {
      const BankGroup::GroupRec& r = a.recs[a.hi_postings[p]];
      const std::uint64_t n1 = field_neg(r.t1);
      const std::uint64_t n2 = field_neg(r.t2);
      for (std::size_t inst = 0; inst < instances; ++inst) {
        const std::uint8_t j = r.lev[inst];
        BankGroup::LazyCell& cell = a.acc[inst * a.level_count + j];
        cell.count -= r.delta;
        cell.coord_sum -= r.wsum;
        BankGroup::LazyCell::add_term(cell.fp1_lo, cell.fp1_hi, n1);
        BankGroup::LazyCell::add_term(cell.fp2_lo, cell.fp2_hi, n2);
      }
      deepest = byte_max(deepest, levels_word(r) & lane_mask);
    }
    OneSparseCell* stripe = a.cells + (v * a.groups + a.group) * cps;
    for (std::size_t inst = 0; inst < instances; ++inst) {
      OneSparseCell* run = stripe + inst * a.level_count;
      BankGroup::LazyCell* bucket = a.acc + inst * a.level_count;
      std::int64_t count = 0;
      std::uint64_t coord_sum = 0;
      __uint128_t fp1 = 0, fp2 = 0;
      for (std::size_t j = ((deepest >> (8 * inst)) & 0xFF) + 1; j-- > 0;) {
        count += bucket[j].count;
        coord_sum += bucket[j].coord_sum;
        fp1 += BankGroup::LazyCell::wide(bucket[j].fp1_lo, bucket[j].fp1_hi);
        fp2 += BankGroup::LazyCell::wide(bucket[j].fp2_lo, bucket[j].fp2_hi);
        bucket[j] = BankGroup::LazyCell{};
        run[j].count += count;
        run[j].coord_sum += coord_sum;
        run[j].fp1 = field_add(run[j].fp1, field_reduce_wide(fp1));
        run[j].fp2 = field_add(run[j].fp2, field_reduce_wide(fp2));
      }
    }
  }
}

}  // namespace

void BankGroup::ingest_staged(std::span<BankPairUpdate> staged, bool pairs,
                              std::size_t group_first,
                              std::size_t group_end) {
  if (staged.empty()) return;

  // Aggregate duplicate (endpoints, coordinate) updates and drop net-zero
  // survivors, compacting in place: a dynamic stream's deletion carries its
  // insertion's pair id, so churned edges collapse to NOTHING here.
  // Bit-identical by linearity -- summed deltas produce the same counts,
  // weighted sums (mod 2^64) and fingerprint terms (field_mul distributes
  // over field_from_signed sums), and a net-zero update contributes exactly
  // zero to every cell.  The table holds indices of kept records; a record
  // is only ever moved to an index at or below its own, after it was read.
  std::size_t count = 0;
  {
    const std::size_t table_size = next_pow2(2 * staged.size());
    const int shift = 64 - std::countr_zero(table_size);
    const std::size_t mask = table_size - 1;
    index_table_.assign(table_size, kEmptyIndex);
    for (const BankPairUpdate& u : staged) {
      if (u.delta == 0) continue;
      // Home slot mixes the endpoints in: entries sharing a coordinate but
      // not endpoints (e.g. one center's whole star in a vertex-update
      // batch) land in different slots instead of one quadratic probe
      // chain.  Probe equality still checks (coord, lo, hi) exactly.
      const std::uint64_t key =
          u.coord * 0x9e3779b97f4a7c15ULL ^
          ((std::uint64_t{u.lo} << 32 | u.hi) * 0xc2b2ae3d27d4eb4fULL);
      std::size_t pos = static_cast<std::size_t>(key >> shift);
      for (;;) {
        const std::uint32_t id = index_table_[pos];
        if (id == kEmptyIndex) {
          index_table_[pos] = static_cast<std::uint32_t>(count);
          staged[count++] = u;
          break;
        }
        BankPairUpdate& f = staged[id];
        if (f.coord == u.coord && f.lo == u.lo && f.hi == u.hi) {
          if (__builtin_add_overflow(f.delta, u.delta, &f.delta)) {
            throw std::overflow_error(
                "sketch bank: update multiplicity overflow");
          }
          break;
        }
        pos = (pos + 1) & mask;
      }
    }
    std::size_t kept = 0;
    for (std::size_t idx = 0; idx < count; ++idx) {
      if (staged[idx].delta != 0) staged[kept++] = staged[idx];
    }
    count = kept;
  }
  if (count == 0) return;
  staged = staged.first(count);

  // Very sparse batches (the counting sort's O(vertices) pass would
  // dominate) and instance counts beyond the packed record's level slots
  // write each update's level runs directly instead.
  const std::size_t postings = count * (pairs ? 2 : 1);
  if (instances_ > 8 || postings * 2 < vertices_) {
    scatter_each(staged, pairs, group_first, group_end);
    return;
  }

  // Counting-sort the staged updates by lo endpoint so the scatter's lo
  // side is a sequential stream (and each vertex's contributions are
  // contiguous); sort order does not change any cell (adds commute).  The
  // stable destinations go into hi_postings_'s storage and are applied in
  // place by cycle-following swaps.
  lo_end_.assign(vertices_, 0);
  for (const BankPairUpdate& u : staged) ++lo_end_[u.lo];
  {
    std::uint32_t running = 0;
    for (std::size_t v = 0; v < vertices_; ++v) {
      const std::uint32_t c = lo_end_[v];
      lo_end_[v] = running;  // start cursor; fill leaves end fences behind
      running += c;
    }
  }
  std::vector<std::uint32_t>& dest = hi_postings_;
  dest.resize(count);
  for (std::size_t idx = 0; idx < count; ++idx) {
    dest[idx] = lo_end_[staged[idx].lo]++;
  }
  for (std::size_t idx = 0; idx < count; ++idx) {
    while (dest[idx] != idx) {
      const std::uint32_t to = dest[idx];
      std::swap(staged[idx], staged[to]);
      std::swap(dest[idx], dest[to]);
    }
  }
  if (pairs) {
    hi_end_.assign(vertices_, 0);
    for (const BankPairUpdate& u : staged) ++hi_end_[u.hi];
    std::uint32_t running = 0;
    for (std::size_t v = 0; v < vertices_; ++v) {
      const std::uint32_t c = hi_end_[v];
      hi_end_[v] = running;
      running += c;
    }
    for (std::size_t idx = 0; idx < count; ++idx) {
      hi_postings_[hi_end_[staged[idx].hi]++] =
          static_cast<std::uint32_t>(idx);
    }
  }

  // Dedupe coordinates into slots (open addressing, first-use order after
  // the lo sort so slot-indexed reads stay near-sequential): a dynamic
  // stream's deletions share their insertions' pair ids, and hash levels
  // and coordinate powers depend only on the coordinate, so each unique
  // coordinate pays for hashing ONCE per chunk regardless of how many
  // updates carry it.
  {
    const std::size_t table_size = next_pow2(2 * count);
    const int shift = 64 - std::countr_zero(table_size);
    const std::size_t mask = table_size - 1;
    index_table_.assign(table_size, kEmptyIndex);
    ucoords_.clear();
    slots_.resize(count);
    for (std::size_t idx = 0; idx < count; ++idx) {
      const std::uint64_t coord = staged[idx].coord;
      std::size_t pos =
          static_cast<std::size_t>((coord * 0x9e3779b97f4a7c15ULL) >> shift);
      while (index_table_[pos] != kEmptyIndex &&
             ucoords_[index_table_[pos]] != coord) {
        pos = (pos + 1) & mask;
      }
      if (index_table_[pos] == kEmptyIndex) {
        index_table_[pos] = static_cast<std::uint32_t>(ucoords_.size());
        ucoords_.push_back(coord);
      }
      slots_[idx] = index_table_[pos];
    }
  }
  const std::size_t uniques = ucoords_.size();

  // The x^1..x^degree table depends only on the coordinates, so one build
  // serves every group's instance hashes.
  const std::size_t degree = hashes_[0].independence() - 1;
  powers_.resize(uniques * degree);
  build_eval_powers(ucoords_, degree, powers_.data());
  recs_.resize(count);
  lazy_acc_.assign(instances_ * levels_, LazyCell{});
  const std::size_t term_digits =
      term_bytes_ <= FingerprintBasis::kPowBytes
          ? term_bytes_
          : FingerprintBasis::kPowBytes + 1;  // forces pow_pair fallback

  for (std::size_t g = group_first; g < group_end; ++g) {
    slot_pows_kernel(bases_[g], ucoords_.data(), uniques, term_digits,
                     recs_.data());
    // One fused sweep per group: all of the group's instance polynomials
    // advance together per unique coordinate over the shared power table.
    eval_deepest_levels(hashes_.data() + g * instances_, instances_, powers_,
                        degree, uniques,
                        static_cast<std::uint8_t>(levels_ - 1),
                        reinterpret_cast<std::uint8_t*>(recs_.data()) +
                            offsetof(GroupRec, lev),
                        sizeof(GroupRec));
    build_recs_kernel(staged.data(), slots_.data(), count, recs_.data());
    ScatterArgs args{recs_.data(),
                     lo_end_.data(),
                     pairs ? hi_postings_.data() : nullptr,
                     pairs ? hi_end_.data() : nullptr,
                     cells_.data(),
                     lazy_acc_.data(),
                     vertices_,
                     groups_,
                     g,
                     instances_,
                     levels_};
    switch (instances_) {
      case 2:
        scatter_kernel<2>(args);
        break;
      case 4:
        scatter_kernel<4>(args);
        break;
      default:
        scatter_kernel<0>(args);
        break;
    }
  }
}

void BankGroup::scatter_each(std::span<const BankPairUpdate> staged,
                             bool pairs, std::size_t group_first,
                             std::size_t group_end) {
  for (const BankPairUpdate& s : staged) {
    const std::int64_t delta = s.delta;
    const std::uint64_t wsum = static_cast<std::uint64_t>(delta) * s.coord;
    for (std::size_t g = group_first; g < group_end; ++g) {
      const std::uint64_t t1 = bases_[g].term1(s.coord, delta);
      const std::uint64_t t2 = bases_[g].term2(s.coord, delta);
      OneSparseCell* lo_stripe = stripe_ptr(g, s.lo);
      OneSparseCell* hi_stripe = stripe_ptr(g, s.hi);
      for (std::size_t inst = 0; inst < instances_; ++inst) {
        const std::size_t deepest =
            clamp_level(hashes_[g * instances_ + inst](s.coord));
        add_run(lo_stripe + inst * levels_, deepest, delta, wsum, t1, t2);
        if (pairs) {
          add_run(hi_stripe + inst * levels_, deepest, -delta, 0 - wsum,
                  field_neg(t1), field_neg(t2));
        }
      }
    }
  }
}

void BankGroup::merge(const BankGroup& other, std::int64_t sign) {
  if (other.vertices_ != vertices_ || other.groups_ != groups_ ||
      other.instances_ != instances_ || other.max_coord_ != max_coord_ ||
      other.seeds_ != seeds_ || other.cells_.size() != cells_.size()) {
    throw std::invalid_argument("merging incompatible bank groups");
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].merge(other.cells_[i], sign);
  }
}

BankGroup BankGroup::clone_empty() const {
  BankGroupConfig config;
  config.max_coord = max_coord_;
  config.instances = instances_;
  config.seeds = seeds_;
  return BankGroup(vertices_, config);
}

void BankGroup::accumulate(std::span<OneSparseCell> acc, std::size_t group,
                           std::size_t vertex, std::int64_t sign) const {
  if (group >= groups_ || vertex >= vertices_ ||
      acc.size() != cells_per_stripe()) {
    throw std::invalid_argument("bank group accumulate mismatch");
  }
  const OneSparseCell* stripe = stripe_ptr(group, vertex);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    acc[i].merge(stripe[i], sign);
  }
}

std::optional<Recovered> BankGroup::decode_cells(
    std::size_t group, std::span<const OneSparseCell> cells) const {
  const FingerprintBasis& basis = bases_[group];
  for (std::size_t inst = 0; inst < instances_; ++inst) {
    // Deepest (sparsest) level first: most likely to be one-sparse.
    for (std::size_t j = levels_; j-- > 0;) {
      Recovered rec;
      if (classify_cell(cells[inst * levels_ + j], max_coord_, basis, &rec) ==
          CellState::kOneSparse) {
        return rec;
      }
    }
  }
  return std::nullopt;
}

bool BankGroup::cells_zero(std::span<const OneSparseCell> cells) noexcept {
  return std::all_of(cells.begin(), cells.end(),
                     [](const OneSparseCell& c) { return c.is_zero(); });
}

}  // namespace kw
