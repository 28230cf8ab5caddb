/// Tunable constants for the paper's algorithms.
///
/// The analysis hides "sufficiently large constant C" factors (Claim 11,
/// Theorem 8's O(log n) budgets, ...).  Real runs need concrete values; every
/// such constant is a named knob here, with defaults calibrated on the
/// experiment suite so decode-failure probability is small at laptop scale
/// (n <= 4096).
#ifndef KW_CORE_CONFIG_H
#define KW_CORE_CONFIG_H

#include <cstddef>
#include <cstdint>

namespace kw {

struct TwoPassConfig {
  unsigned k = 2;            // hierarchy depth; stretch bound is 2^k
  std::uint64_t seed = 1;

  // Pass 1: SKETCH_B budget for the S^r_j(u) sketches ("B = O(log n)").
  std::size_t pass1_budget = 6;
  std::size_t pass1_rows = 3;  // in [1, 4]: the staged scatter's row limit

  // Pass 2: H^u_j table capacity = capacity_factor * n^{(i+1)/k} * log2(n)
  // (Claim 11's C log n headroom); table geometry below.
  double table_capacity_factor = 1.0;
  std::size_t kv_tables = 3;
  double kv_load_factor = 0.5;

  // Embedded neighborhood-sketch geometry per table entry ("SKETCH_{O(log
  // n)}" in Algorithm 2) and the Y_j ladder granularity: half-octave rates
  // 2^{-j/2} (default) vs the paper's literal octaves 2^{-j}.  Ablated in
  // bench_ablation.
  std::size_t table_payload_budget = 4;
  std::size_t table_payload_rows = 3;
  bool y_half_octave = true;

  // Claims 16/18/20: also emit every edge decoded on the execution path.
  bool augmented = false;
};

struct AdditiveConfig {
  // The space/approximation parameter of Thm 3.  d <= center_rate_factor
  // (2 by default) is the trivial regime: the center rate clamps to 1, every
  // vertex is a center, nothing attaches, and every cluster is a singleton.
  double d = 8.0;
  std::uint64_t seed = 1;

  // Degree threshold O(d log n): low-degree iff deg <= threshold_factor *
  // d * log2(n).  Claim coverage: every vertex above it has a neighbor in C
  // whp when centers are sampled at rate center_rate_factor / d.
  double threshold_factor = 1.0;
  double center_rate_factor = 2.0;

  // S(u) neighborhood sketch budget = budget_slack * threshold (so that
  // decode succeeds exactly for the low-degree vertices).
  double budget_slack = 1.5;

  // Degree estimation accuracy (distinct-elements sketch).
  double degree_epsilon = 0.35;
  std::size_t degree_repetitions = 5;

  // AGM sketch geometry for the contracted spanning forest.
  std::size_t agm_rounds = 12;
  std::size_t agm_instances = 4;
};

struct Kp12Config {
  unsigned k = 2;            // spanner parameter; oracle stretch = 2^k
  double epsilon = 0.5;      // target sparsifier quality (1 +- O(eps))
  std::uint64_t seed = 1;

  // ESTIMATE (Algorithm 4): J independent copies x T nested sampling
  // levels.  Paper: J = O(log n / eps^2), T = log(n eps^4).
  std::size_t j_copies = 6;
  std::size_t t_levels = 0;       // 0 => ceil(log2 n) + 1
  double xi_threshold_fraction = 0.75;  // the (1 - delta) vote fraction

  // SAMPLE / SPARSIFY (Algorithms 5-6): Z averaged samples over H = log2
  // n^2 sampling levels.  Paper: Z = Theta(lambda^2 log n / eps...).
  std::size_t z_samples = 8;

  // Underlying two-pass spanner geometry for all oracle instances.
  TwoPassConfig spanner;

  // Worker lanes for the staged-absorb scatter and the between-pass /
  // finish advance (0 = hardware_concurrency).  Execution-only: results
  // are bit-identical for every lane count, so this is never serialized
  // and never perturbs the seed chain.
  std::size_t ingest_workers = 0;

  // Worker lanes for the terminal-table decode inside finish() (0 =
  // hardware_concurrency).  Shares ONE WorkerPool with the ingest lanes
  // (sized to the larger of the two; per-phase lane caps pick the budget),
  // so ingest and decode never oversubscribe the machine.  Execution-only,
  // like ingest_workers: never serialized, bit-identical at any count.
  std::size_t decode_workers = 0;
};

}  // namespace kw

#endif  // KW_CORE_CONFIG_H
