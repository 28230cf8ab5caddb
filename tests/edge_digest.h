// FNV-1a digest of an edge set, order- and orientation-independent: the
// edges are canonicalized to (min, max) and sorted before hashing.  The
// golden suites pin algorithm outputs with it.
#ifndef KW_TESTS_EDGE_DIGEST_H
#define KW_TESTS_EDGE_DIGEST_H

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "graph/graph.h"

namespace kw {

[[nodiscard]] inline std::uint64_t edge_digest(std::vector<Edge> edges) {
  for (Edge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.u, a.v) < std::tie(b.u, b.v);
  });
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Edge& e : edges) {
    const std::uint64_t word = (std::uint64_t{e.u} << 32) | e.v;
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

[[nodiscard]] inline std::uint64_t edge_digest(const Graph& g) {
  return edge_digest(g.edges());
}

}  // namespace kw

#endif  // KW_TESTS_EDGE_DIGEST_H
