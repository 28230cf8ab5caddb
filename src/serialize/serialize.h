/// Versioned binary serialization for sketches and stream processors.
///
/// On-disk envelope (all fields little-endian):
///
///   offset  size  field
///   0       4     magic 'KWSK' (0x4B53574B as LE u32 from bytes K W S K)
///   4       4     format version (currently 2)
///   8       4     type tag (fourcc of the serialized type, e.g. 'BKGR')
///   12      8     payload length in bytes
///   20      len   payload (type-specific, parsed by Reader)
///   20+len  4     CRC-32 of bytes [0, 20+len)  (zlib polynomial)
///
/// The payload is fully read into memory and CRC-verified BEFORE any
/// parsing, and every Reader access is bounds-checked, so corrupt input
/// raises SerializeError instead of undefined behavior.
///
/// Payloads store only what cannot be re-derived: configuration + seeds +
/// geometry (written for validation against the live object) and the
/// sketch's linear state.  Hash coefficients, fingerprint power tables, and
/// other seed-derived structure are rebuilt by the normal constructors --
/// load() therefore requires a destination object constructed with the SAME
/// configuration as the saved one, and throws if the stored geometry
/// disagrees.
#ifndef KW_SERIALIZE_SERIALIZE_H
#define KW_SERIALIZE_SERIALIZE_H

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "serialize/binary_io.h"
#include "sketch/fingerprint.h"

namespace kw {

class StreamProcessor;
class Graph;
class BankGroup;
class SparseRecoverySketch;
class DistinctElementsSketch;
class AgmGraphSketch;
class TwoPassSpanner;
class SpanningForestProcessor;
class KConnectivitySketch;
class Kp12Sparsifier;
class MultipassSpanner;
class AdditiveSpannerSketch;
class DemuxProcessor;

namespace ser {

constexpr std::uint32_t kMagic = 0x4B53574Bu;  // 'KWSK' little-endian
// v2: KvTableBank blocks became level diffs and the pass-2 bank seed chain
// went per-capacity-class (shared fleet geometry); v1 spanner checkpoints
// would decode silently wrong, so the version gate rejects them.
//
// The MPSP payload changed within v2: its per-vertex tables were standalone
// key -> payload sketches and are now one-level KvTableBanks.  The version
// stays 2 because the committed v2 KP12 fixture must keep loading and
// reserializing byte for byte.  An older MPSP checkpoint is rejected all
// the same: where a bank's state stores its level count (1), the old table
// stored its payload cell count, which is never 1, so the `levels` field
// check throws SerializeError.
constexpr std::uint32_t kFormatVersion = 2;

[[nodiscard]] constexpr std::uint32_t fourcc(char a, char b, char c,
                                             char d) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

// Type tags.  A tag names a payload layout; bumping a layout means a new
// format version, not a new tag -- unless the old layout is rejected by a
// field check anyway, as for MPSP above.
constexpr std::uint32_t kTagBankGroup = fourcc('B', 'K', 'G', 'R');
constexpr std::uint32_t kTagSparseRecovery = fourcc('S', 'P', 'R', 'S');
constexpr std::uint32_t kTagDistinctElements = fourcc('D', 'S', 'T', 'E');
constexpr std::uint32_t kTagAgmSketch = fourcc('A', 'G', 'M', 'S');
constexpr std::uint32_t kTagTwoPassSpanner = fourcc('T', 'P', 'S', 'P');
constexpr std::uint32_t kTagSpanningForest = fourcc('S', 'P', 'F', 'P');
constexpr std::uint32_t kTagKConnectivity = fourcc('K', 'C', 'O', 'N');
constexpr std::uint32_t kTagKp12 = fourcc('K', 'P', '1', '2');
constexpr std::uint32_t kTagMultipass = fourcc('M', 'P', 'S', 'P');
constexpr std::uint32_t kTagAdditive = fourcc('A', 'D', 'S', 'P');
constexpr std::uint32_t kTagDemux = fourcc('D', 'E', 'M', 'X');
constexpr std::uint32_t kTagCheckpoint = fourcc('C', 'K', 'P', 'T');

[[nodiscard]] std::string tag_name(std::uint32_t tag);

// Compile-time type -> tag map for the template save/load entry points.
// Specialized next to each type's serialize implementation declaration.
template <class T>
struct SerialTag;  // no default: unserializable types fail to compile

template <class T>
concept Serializable = requires { SerialTag<T>::value; };

// clang-format off
template <> struct SerialTag<BankGroup> { static constexpr std::uint32_t value = kTagBankGroup; };
template <> struct SerialTag<SparseRecoverySketch> { static constexpr std::uint32_t value = kTagSparseRecovery; };
template <> struct SerialTag<DistinctElementsSketch> { static constexpr std::uint32_t value = kTagDistinctElements; };
template <> struct SerialTag<AgmGraphSketch> { static constexpr std::uint32_t value = kTagAgmSketch; };
template <> struct SerialTag<TwoPassSpanner> { static constexpr std::uint32_t value = kTagTwoPassSpanner; };
template <> struct SerialTag<SpanningForestProcessor> { static constexpr std::uint32_t value = kTagSpanningForest; };
template <> struct SerialTag<KConnectivitySketch> { static constexpr std::uint32_t value = kTagKConnectivity; };
template <> struct SerialTag<Kp12Sparsifier> { static constexpr std::uint32_t value = kTagKp12; };
template <> struct SerialTag<MultipassSpanner> { static constexpr std::uint32_t value = kTagMultipass; };
template <> struct SerialTag<AdditiveSpannerSketch> { static constexpr std::uint32_t value = kTagAdditive; };
template <> struct SerialTag<DemuxProcessor> { static constexpr std::uint32_t value = kTagDemux; };
// clang-format on

// ---- cell sections ------------------------------------------------------
//
// The unit of sketch state is the 32-byte OneSparseCell.  A cell section
// stores a fixed-geometry run of cells either densely (raw cells) or
// sparsely (count + per-cell u32 index + cell), picking sparse exactly when
// fewer than half the cells are non-zero.  Layout:
//
//   u64  total cell count   (validated against the destination geometry)
//   u8   mode: 0 = dense, 1 = sparse
//   mode 0: total * 32 raw cell bytes
//   mode 1: u64 nonzero count; per nonzero cell: u32 index + 32 cell bytes
//
// Sections longer than 2^32 cells always use dense mode (indices are u32).
void write_cells(Writer& w, std::span<const OneSparseCell> cells,
                 const char* label);
void read_cells(Reader& r, std::span<OneSparseCell> cells);

// Single-cell helpers for scalar cell fields.
void put_cell(Writer& w, const OneSparseCell& cell);
[[nodiscard]] OneSparseCell get_cell(Reader& r);

// ---- small aggregate helpers --------------------------------------------

void put_graph(Writer& w, const Graph& g);
// Reads a put_graph() record into a graph on the destination's `n`
// vertices; a stored vertex count other than `n`, an edge count the
// payload cannot hold, or an invalid endpoint throws SerializeError.
[[nodiscard]] Graph get_graph(Reader& r, std::uint32_t n);

void put_u32_vector(Writer& w, const std::vector<std::uint32_t>& v);
void get_u32_vector(Reader& r, std::vector<std::uint32_t>& v);
void put_u64_vector(Writer& w, const std::vector<std::uint64_t>& v);
void get_u64_vector(Reader& r, std::vector<std::uint64_t>& v);

// Geometry/config validation helper: most deserializers call this per
// stored field to compare against the live object's constructor-derived
// value.
template <typename A, typename B>
void check_field(A stored, B live, const char* name) {
  if (stored != static_cast<A>(live)) {
    throw SerializeError(std::string("stored ") + name +
                         " does not match the destination object (stored " +
                         std::to_string(stored) + ", live " +
                         std::to_string(static_cast<A>(live)) + ")");
  }
}
// Doubles are configuration constants, never computed: compare bitwise.
void check_f64_field(double stored, double live, const char* name);

namespace detail {

void write_envelope(std::ostream& os, std::uint32_t tag,
                    const std::vector<unsigned char>& payload,
                    SerializeStats* stats);
// Reads + CRC-verifies one envelope; returns the payload bytes.
[[nodiscard]] std::vector<unsigned char> read_envelope(std::istream& is,
                                                       std::uint32_t
                                                           expected_tag);

}  // namespace detail

// ---- entry points -------------------------------------------------------

// Serializes `obj` (framed + CRC'd) to `os`.  `stats`, when non-null,
// receives the per-section byte accounting.
template <Serializable T>
void save(std::ostream& os, const T& obj, SerializeStats* stats = nullptr) {
  Writer w;
  obj.serialize(w);
  detail::write_envelope(os, SerialTag<T>::value, w.buffer(),
                         stats ? &w.stats() : nullptr);
  if (stats != nullptr) *stats = w.stats();
}

// Loads state saved by save() into `obj`, which must have been constructed
// with the same configuration (seeds, geometry) as the saved object.
template <Serializable T>
void load(std::istream& is, T& obj) {
  const std::vector<unsigned char> payload =
      detail::read_envelope(is, SerialTag<T>::value);
  Reader r(payload.data(), payload.size());
  obj.deserialize(r);
  r.expect_end();
}

// Runtime-dispatched variants for processors held by base reference: the
// tag comes from StreamProcessor::serial_tag().
void save(std::ostream& os, const StreamProcessor& processor,
          SerializeStats* stats = nullptr);
void load(std::istream& is, StreamProcessor& processor);

template <class T>
[[nodiscard]] std::string save_to_bytes(const T& obj,
                                        SerializeStats* stats = nullptr) {
  std::ostringstream os(std::ios::binary);
  save(os, obj, stats);
  return std::move(os).str();
}

template <class T>
void load_from_bytes(std::string_view bytes, T& obj) {
  std::istringstream is(std::string(bytes), std::ios::binary);
  load(is, obj);
}

// ---- distributed merge --------------------------------------------------
//
// Coordinator side of the k-machine protocol: deserializes one shard's
// state into a fresh clone_empty() of `target` and folds it in via the
// merge() contract.  Exact by sketch linearity.
void merge_from_stream(std::istream& is, StreamProcessor& target);
void merge_from_bytes(std::string_view bytes, StreamProcessor& target);

}  // namespace ser
}  // namespace kw

#endif  // KW_SERIALIZE_SERIALIZE_H
