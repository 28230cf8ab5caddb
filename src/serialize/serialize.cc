#include "serialize/serialize.h"

#include <algorithm>
#include <limits>

#include "engine/stream_processor.h"
#include "graph/graph.h"
#include "util/fault_injection.h"

namespace kw::ser {

std::string tag_name(std::uint32_t tag) {
  std::string s;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
    s.push_back((c >= 32 && c < 127) ? c : '?');
  }
  return s;
}

// ---- cell sections ------------------------------------------------------

namespace {

// OneSparseCell's wire image is exactly its memory image on little-endian
// hosts: four 8-byte words, no padding.
static_assert(sizeof(OneSparseCell) == 32,
              "OneSparseCell wire format assumes 4 packed 8-byte words");

void put_cell_fields(Writer& w, const OneSparseCell& c) {
  w.i64(c.count);
  w.u64(c.coord_sum);
  w.u64(c.fp1);
  w.u64(c.fp2);
}

OneSparseCell get_cell_fields(Reader& r) {
  OneSparseCell c;
  c.count = r.i64();
  c.coord_sum = r.u64();
  c.fp1 = r.u64();
  c.fp2 = r.u64();
  return c;
}

}  // namespace

void put_cell(Writer& w, const OneSparseCell& cell) {
  put_cell_fields(w, cell);
}

OneSparseCell get_cell(Reader& r) { return get_cell_fields(r); }

void write_cells(Writer& w, std::span<const OneSparseCell> cells,
                 const char* label) {
  w.begin_section(label);
  const std::size_t total = cells.size();
  std::size_t nonzero = 0;
  for (const OneSparseCell& c : cells) {
    if (!c.is_zero()) ++nonzero;
  }
  w.stats().cells_total += total;
  w.stats().cells_nonzero += nonzero;
  w.u64(total);
  // Sparse encoding pays 36 bytes per non-zero cell vs 32 dense, and its
  // indices are u32: use it only below 50% occupancy and within u32 range.
  const bool sparse =
      nonzero * 2 < total &&
      total <= std::numeric_limits<std::uint32_t>::max();
  w.u8(sparse ? 1 : 0);
  if (sparse) {
    w.mark_section_sparse();
    w.u64(nonzero);
    for (std::size_t i = 0; i < total; ++i) {
      if (cells[i].is_zero()) continue;
      w.u32(static_cast<std::uint32_t>(i));
      put_cell_fields(w, cells[i]);
    }
  } else if (std::endian::native == std::endian::little) {
    w.bytes(cells.data(), total * sizeof(OneSparseCell));
  } else {
    for (const OneSparseCell& c : cells) put_cell_fields(w, c);
  }
  w.end_section();
}

void read_cells(Reader& r, std::span<OneSparseCell> cells) {
  const std::uint64_t total = r.u64();
  if (total != cells.size()) {
    throw SerializeError("cell section covers " + std::to_string(total) +
                         " cells but the destination stripe has " +
                         std::to_string(cells.size()));
  }
  const std::uint8_t mode = r.u8();
  if (mode == 0) {
    if (std::endian::native == std::endian::little) {
      r.bytes(cells.data(), cells.size() * sizeof(OneSparseCell));
    } else {
      for (OneSparseCell& c : cells) c = get_cell_fields(r);
    }
  } else if (mode == 1) {
    std::fill(cells.begin(), cells.end(), OneSparseCell{});
    const std::uint64_t nonzero = r.u64();
    if (nonzero > total) {
      throw SerializeError("cell section claims more non-zero cells (" +
                           std::to_string(nonzero) + ") than its total (" +
                           std::to_string(total) + ")");
    }
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < nonzero; ++i) {
      const std::uint32_t index = r.u32();
      if (index >= total || (i > 0 && index <= prev)) {
        throw SerializeError("cell section index " + std::to_string(index) +
                             " out of order or out of range");
      }
      prev = index;
      cells[index] = get_cell_fields(r);
    }
  } else {
    throw SerializeError("unknown cell section mode " + std::to_string(mode));
  }
}

// ---- small aggregate helpers --------------------------------------------

void put_graph(Writer& w, const Graph& g) {
  w.u32(g.n());
  w.u64(g.m());
  for (const Edge& e : g.edges()) {
    w.u32(e.u);
    w.u32(e.v);
    w.f64(e.weight);
  }
}

Graph get_graph(Reader& r, std::uint32_t n) {
  // Every stored count is checked before the O(n) adjacency or the O(m)
  // edge list is allocated: a hostile header cannot size either.
  check_field(r.u32(), n, "graph vertex count");
  const std::uint64_t m = r.u64();
  if (m > r.remaining() / 16) {
    throw SerializeError("graph edge list longer than the remaining payload");
  }
  Graph g(n);
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint32_t u = r.u32();
    const std::uint32_t v = r.u32();
    const double weight = r.f64();
    if (u >= n || v >= n || u == v) {
      throw SerializeError("graph edge (" + std::to_string(u) + ", " +
                           std::to_string(v) + ") invalid for " +
                           std::to_string(n) + " vertices");
    }
    g.add_edge(u, v, weight);
  }
  return g;
}

void put_u32_vector(Writer& w, const std::vector<std::uint32_t>& v) {
  w.u64(v.size());
  for (const std::uint32_t x : v) w.u32(x);
}

void get_u32_vector(Reader& r, std::vector<std::uint32_t>& v) {
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / 4) {
    throw SerializeError("u32 vector longer than the remaining payload");
  }
  v.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) v[i] = r.u32();
}

void put_u64_vector(Writer& w, const std::vector<std::uint64_t>& v) {
  w.u64(v.size());
  for (const std::uint64_t x : v) w.u64(x);
}

void get_u64_vector(Reader& r, std::vector<std::uint64_t>& v) {
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / 8) {
    throw SerializeError("u64 vector longer than the remaining payload");
  }
  v.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) v[i] = r.u64();
}

void check_f64_field(double stored, double live, const char* name) {
  if (std::bit_cast<std::uint64_t>(stored) !=
      std::bit_cast<std::uint64_t>(live)) {
    throw SerializeError(std::string("stored ") + name +
                         " does not match the destination object (stored " +
                         std::to_string(stored) + ", live " +
                         std::to_string(live) + ")");
  }
}

// ---- envelope -----------------------------------------------------------

namespace detail {

namespace {

void append_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFF));
  }
}

void append_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFF));
  }
}

[[nodiscard]] std::uint32_t parse_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

[[nodiscard]] std::uint64_t parse_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

void write_envelope(std::ostream& os, std::uint32_t tag,
                    const std::vector<unsigned char>& payload,
                    SerializeStats* stats) {
  if (fault::fire(fault::site::kSerializeWriteEnospc)) {
    throw SerializeError("injected ENOSPC: no space left on device");
  }
  std::vector<unsigned char> header;
  header.reserve(20);
  append_u32(header, kMagic);
  append_u32(header, kFormatVersion);
  append_u32(header, tag);
  append_u64(header, payload.size());
  std::uint32_t crc = crc32(header.data(), header.size());
  crc = crc32(payload.data(), payload.size(), crc);
  if (fault::fire(fault::site::kSerializeWriteShort)) {
    // Short write: half the envelope lands, then the device gives out.  The
    // truncated bytes stay in the stream -- readers must reject them.
    os.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
    os.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size() / 2));
    os.flush();
    os.setstate(std::ios::failbit);
    throw SerializeError("write to output stream failed (injected short "
                         "write)");
  }
  os.write(reinterpret_cast<const char*>(header.data()),
           static_cast<std::streamsize>(header.size()));
  os.write(reinterpret_cast<const char*>(payload.data()),
           static_cast<std::streamsize>(payload.size()));
  unsigned char crc_bytes[4];
  for (int i = 0; i < 4; ++i) {
    crc_bytes[i] = static_cast<unsigned char>((crc >> (8 * i)) & 0xFF);
  }
  os.write(reinterpret_cast<const char*>(crc_bytes), 4);
  if (!os) throw SerializeError("write to output stream failed");
  if (stats != nullptr) {
    stats->payload_bytes = payload.size();
    stats->total_bytes = header.size() + payload.size() + 4;
  }
}

std::vector<unsigned char> read_envelope(std::istream& is,
                                         std::uint32_t expected_tag) {
  unsigned char header[20];
  is.read(reinterpret_cast<char*>(header), sizeof(header));
  if (is.gcount() != static_cast<std::streamsize>(sizeof(header))) {
    throw SerializeError("truncated input: envelope header incomplete");
  }
  const std::uint32_t magic = parse_u32(header);
  if (magic != kMagic) {
    throw SerializeError("bad magic (not a KWSK sketch file)");
  }
  const std::uint32_t version = parse_u32(header + 4);
  if (version != kFormatVersion) {
    throw SerializeError("unsupported format version " +
                         std::to_string(version) + " (this build reads " +
                         std::to_string(kFormatVersion) + ")");
  }
  const std::uint32_t tag = parse_u32(header + 8);
  if (tag != expected_tag) {
    throw SerializeError("type tag mismatch: file holds '" + tag_name(tag) +
                         "', expected '" + tag_name(expected_tag) + "'");
  }
  const std::uint64_t payload_len = parse_u64(header + 12);
  std::vector<unsigned char> payload;
  // Read in bounded chunks so a corrupt length field cannot trigger one
  // giant allocation before truncation is detected.
  constexpr std::uint64_t kChunk = 1 << 20;
  std::uint64_t got = 0;
  while (got < payload_len) {
    const std::uint64_t want = std::min(kChunk, payload_len - got);
    payload.resize(got + want);
    is.read(reinterpret_cast<char*>(payload.data() + got),
            static_cast<std::streamsize>(want));
    if (is.gcount() != static_cast<std::streamsize>(want)) {
      throw SerializeError("truncated input: payload shorter than its "
                           "declared length");
    }
    got += want;
  }
  if (fault::fire(fault::site::kSerializeReadBitflip) && !payload.empty()) {
    // Deterministic single-bit corruption between the read and the CRC
    // check, at a position that walks the payload across triggers.  A
    // single flipped byte is a burst of <= 8 bits, so CRC-32 detects it
    // with certainty -- the check below MUST throw.
    const std::uint64_t t = fault::triggers(fault::site::kSerializeReadBitflip);
    payload[(t * 8191) % payload.size()] ^= 0x04;
  }
  unsigned char crc_bytes[4];
  is.read(reinterpret_cast<char*>(crc_bytes), 4);
  if (is.gcount() != 4) {
    throw SerializeError("truncated input: CRC trailer missing");
  }
  const std::uint32_t stored_crc = parse_u32(crc_bytes);
  std::uint32_t crc = crc32(header, sizeof(header));
  crc = crc32(payload.data(), payload.size(), crc);
  if (crc != stored_crc) {
    throw SerializeError("CRC mismatch: file is corrupt");
  }
  return payload;
}

}  // namespace detail

// ---- processor entry points ---------------------------------------------

namespace {

[[nodiscard]] std::uint32_t require_tag(const StreamProcessor& p) {
  const std::uint32_t tag = p.serial_tag();
  if (tag == 0) {
    throw SerializeError("this StreamProcessor type is not serializable");
  }
  return tag;
}

}  // namespace

void save(std::ostream& os, const StreamProcessor& processor,
          SerializeStats* stats) {
  Writer w;
  processor.serialize(w);
  detail::write_envelope(os, require_tag(processor), w.buffer(),
                         stats ? &w.stats() : nullptr);
  if (stats != nullptr) *stats = w.stats();
}

void load(std::istream& is, StreamProcessor& processor) {
  const std::vector<unsigned char> payload =
      detail::read_envelope(is, require_tag(processor));
  Reader r(payload.data(), payload.size());
  processor.deserialize(r);
  r.expect_end();
}

void merge_from_stream(std::istream& is, StreamProcessor& target) {
  std::unique_ptr<StreamProcessor> shard = target.clone_empty();
  if (shard == nullptr) {
    throw SerializeError(
        "merge_from_stream: target cannot clone_empty() at its current "
        "pass");
  }
  load(is, *shard);
  target.merge(std::move(*shard));
}

void merge_from_bytes(std::string_view bytes, StreamProcessor& target) {
  std::istringstream is(std::string(bytes), std::ios::binary);
  merge_from_stream(is, target);
}

}  // namespace kw::ser
