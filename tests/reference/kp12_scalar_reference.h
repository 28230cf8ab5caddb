// Test-only reference for Kp12Sparsifier ingestion: the per-update fan-out
// that the fused absorb() replaced.  For each update it hashes the pair
// once per membership copy (one survive_level per ESTIMATE copy j and per
// SAMPLE invocation s) and feeds every surviving instance of that copy's
// nested ladder a one-update absorb().  Sketches are linear, so the state
// it reaches must be bit-identical to absorb() over any batching;
// tests/test_kp12_fused.cc pins that.
//
// It reaches the instance fleet through the sparsifier's one friend
// declaration and shares its lazy construction and phase discipline.
#ifndef KW_TESTS_REFERENCE_KP12_SCALAR_REFERENCE_H
#define KW_TESTS_REFERENCE_KP12_SCALAR_REFERENCE_H

#include <span>

#include "core/kp12_sparsifier.h"
#include "stream/update.h"

namespace kw {

struct Kp12ScalarReference {
  // Ingests `batch` into the sparsifier's current pass, one update at a
  // time.  Throws std::logic_error after finish(), like absorb().
  static void absorb(Kp12Sparsifier& sparsifier,
                     std::span<const EdgeUpdate> batch);
};

}  // namespace kw

#endif  // KW_TESTS_REFERENCE_KP12_SCALAR_REFERENCE_H
