// Shared harness of the JSON-emitting micro-benches (bench_stream_engine,
// bench_kp12_sparsifier, bench_sketch_hotpath, bench_serialize): one result
// row type, one best-of-N timing loop, the machine-speed calibration row,
// and the BENCH_*.json writer.
//
// tools/compare_bench.py compares a fresh run against a committed baseline
// after dividing every row by the `calibration` row on both sides
// (--normalize-by calibration), so runner-speed differences cancel.  The
// calibration row is a fixed dependent multiply-mod chain that calls no
// library code and touches no memory: no change to the library can move
// it, only the machine can.
#ifndef KW_BENCH_HARNESS_H
#define KW_BENCH_HARNESS_H

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace kw::bench {

struct Result {
  std::string name;
  std::size_t updates = 0;  // work units of the row (bytes for save/load)
  double ms = 0.0;
  bool ok = true;  // the row's self-check passed

  [[nodiscard]] double per_sec() const {
    return static_cast<double>(updates) / (ms / 1e3);
  }
};

// Best-of-N wall clock: calls `rep` -- one repetition of a row, returning
// the milliseconds of its own timed region -- until at least 5 repetitions
// AND 300 ms of timed work have run, and returns the fastest.  The time
// floor gives short rows as many tries as long ones get from the rep
// floor; the minimum screens out scheduler noise on shared machines (the
// numbers feed a regression compare, so stability matters more than
// average-case jitter).
template <class Rep>
[[nodiscard]] double best_ms(Rep&& rep) {
  constexpr int kMinReps = 5;
  constexpr double kMinTotalMs = 300.0;
  double best = std::numeric_limits<double>::infinity();
  double total = 0.0;
  for (int reps = 0; reps < kMinReps || total < kMinTotalMs; ++reps) {
    const double ms = rep();
    best = std::min(best, ms);
    total += ms;
  }
  return best;
}

// Best of N (best_ms) runs of a 2^24-step chain x <- (x * a + i) mod p, p
// the largest 64-bit prime.  Each step depends on the previous one, so the
// row times the core's multiply/divide latency alone (~0.1 s per run).
[[nodiscard]] inline Result calibration() {
  constexpr std::uint64_t kSteps = std::uint64_t{1} << 24;
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t kPrime = 0xffffffffffffffc5ULL;
  // Run-time start value and sink: the chain can be neither folded at
  // compile time nor dropped as dead code.
  volatile std::uint64_t seed = 1;
  [[maybe_unused]] volatile std::uint64_t sink = 0;
  Result r;
  r.name = "calibration";
  r.updates = kSteps;
  r.ms = best_ms([&] {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t x = seed;
    for (std::uint64_t i = 0; i < kSteps; ++i) x = (x * kMul + i) % kPrime;
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    sink = x;
    return elapsed.count();
  });
  std::printf("calibration: %zu multiply-mod steps in %.1f ms\n", r.updates,
              r.ms);
  return r;
}

// Writes BENCH_<bench>.json (schema 1): run metadata, the process's peak
// RSS so far, and one {name, updates, ms, updates_per_sec} row per result.
inline void write_json(const char* bench, const std::vector<Result>& results,
                       const std::string& path, bool quick) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);  // ru_maxrss: peak RSS in KiB on Linux
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"schema\": 1,\n", bench);
  std::fprintf(f, "  \"quick\": %s,\n  \"hardware_threads\": %u,\n",
               quick ? "true" : "false",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"peak_rss_kb\": %ld,\n", ru.ru_maxrss);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"updates\": %zu, \"ms\": %.3f, "
                 "\"updates_per_sec\": %.1f}%s\n",
                 r.name.c_str(), r.updates, r.ms, r.per_sec(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace kw::bench

#endif  // KW_BENCH_HARNESS_H
