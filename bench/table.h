// Fixed-width table printing shared by the experiment benches.
//
// Every bench prints: a header naming the experiment and the paper claim it
// regenerates, one row per parameter point, and a PASS/CHECK verdict column
// where the claim is checkable.
#ifndef KW_BENCH_TABLE_H
#define KW_BENCH_TABLE_H

#include <cstdio>
#include <string>
#include <vector>

namespace kw::bench {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    auto print_row = [&widths](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : kEmpty;
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (const std::size_t w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  inline static const std::string kEmpty;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

[[nodiscard]] inline std::string fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

[[nodiscard]] inline std::string fmt_int(std::size_t v) {
  return std::to_string(v);
}

[[nodiscard]] inline std::string fmt_bytes(std::size_t bytes) {
  char buf[64];
  if (bytes >= (1ULL << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= (1ULL << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB",
                  static_cast<double>(bytes) / (1 << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  }
  return buf;
}

[[nodiscard]] inline std::string verdict(bool ok) {
  return ok ? "PASS" : "CHECK";
}

inline void banner(const char* experiment, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", experiment, claim);
}

}  // namespace kw::bench

#endif  // KW_BENCH_TABLE_H
