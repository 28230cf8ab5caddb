// Measurement harness for the end-to-end benchmark: one clock, order
// statistics that carry their sample count, the process's peak RSS, and a
// minimal JSON object writer.
#ifndef KW_E2EBENCH_HARNESS_H
#define KW_E2EBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace kw::e2e {

// Seconds on the steady clock, relative to the first call in the process.
// Every timestamp in a run (span bounds, ingest windows) is on this scale.
[[nodiscard]] inline double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

// Median and quartiles of a sample, with its size.  Quartiles follow
// Python's statistics.quantiles(values, n=4) (the "exclusive" method), so
// the spreads printed here match the ones run.py computes across runs.
struct Summary {
  std::size_t n = 0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

[[nodiscard]] inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  const auto quartile = [&values, n](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * j;
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

// Nearest-rank percentile p in (0, 100), reported only when at least ten
// samples lie beyond it (so p90 needs 100 samples): a tail percentile drawn
// from fewer samples is mostly noise.
[[nodiscard]] inline std::optional<double> tail_percentile(
    std::vector<double> values, double p) {
  const auto n = static_cast<double>(values.size());
  if (values.empty() || n * (1.0 - p / 100.0) < 10.0) return std::nullopt;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

// Peak resident set (VmHWM) of this process in MiB; 0 if unreadable.
[[nodiscard]] inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
    }
  }
  return 0.0;
}

// Resets VmHWM to the current RSS, so the next peak_rss_mb() covers only
// what ran after this call.  False if the kernel refused.
inline bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

// Builds one flat JSON object; values are written with full precision.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value) {
    char buf[40];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return raw(key, buf);
  }
  JsonObject& integer(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& boolean(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& str(std::string_view key, std::string_view value) {
    return raw(key, quote(value));
  }
  // `json` must already be valid JSON (a nested object or array).
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += quote(key);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

  [[nodiscard]] static std::string quote(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

}  // namespace kw::e2e

#endif  // KW_E2EBENCH_HARNESS_H
