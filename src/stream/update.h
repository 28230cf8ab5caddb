// The dynamic streaming model (Section 1).
//
// A stream is a sequence a_1..a_t of signed edge updates; the multiplicity of
// edge {i,j} is the net count of its +1/-1 updates and must remain
// nonnegative.  For weighted graphs the model allows adding a weighted edge
// or removing it entirely (no turnstile weight updates), so the weight is
// carried on the update itself (footnote 1 of the paper).
#ifndef KW_STREAM_UPDATE_H
#define KW_STREAM_UPDATE_H

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "graph/graph.h"

namespace kw {

struct EdgeUpdate {
  Vertex u = 0;
  Vertex v = 0;
  std::int32_t delta = 1;  // +1 insertion, -1 deletion (of one multiplicity)
  double weight = 1.0;     // weight of the edge, known at update time

  [[nodiscard]] bool operator==(const EdgeUpdate& o) const noexcept {
    return u == o.u && v == o.v && delta == o.delta && weight == o.weight;
  }
};

// Throws std::out_of_range naming `who` if any update in `batch` has an
// endpoint >= n, self-loops included.  Every processor's absorb() runs it
// before changing any state, so a rejected batch leaves the processor as it
// was.
inline void check_endpoints(std::span<const EdgeUpdate> batch, Vertex n,
                            const char* who) {
  for (const EdgeUpdate& u : batch) {
    if (u.u >= n || u.v >= n) {
      throw std::out_of_range(std::string(who) + ": endpoint out of range");
    }
  }
}

}  // namespace kw

#endif  // KW_STREAM_UPDATE_H
