// stream_tool: a command-line driver for the library -- the shape a
// downstream user would actually deploy.
//
// Reads a dynamic edge stream from a file (or generates one), builds the
// requested synopsis, and writes the result as an edge list.
//
// Usage:
//   stream_tool spanner   <n> <k> [stream.txt]
//   stream_tool additive  <n> <d> [stream.txt]
//   stream_tool forest    <n>     [stream.txt]
//   stream_tool demo                    # self-contained demo run
//
// Stream file format: one update per line, "u v delta [weight]", with
// 0 <= u, v < n; blank lines and lines starting with '#' are skipped.  A
// malformed line, an out-of-range vertex or trailing garbage is reported as
// "path:line: reason" and exits with status 2.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "agm/spanning_forest.h"
#include "core/additive_spanner.h"
#include "core/two_pass_spanner.h"
#include "graph/generators.h"
#include "stream/dynamic_stream.h"

namespace {

using namespace kw;

// Reports a malformed stream line as "path:line: reason" and exits 2.
[[noreturn]] void reject_line(const char* path, std::size_t line_no,
                              const std::string& reason) {
  std::fprintf(stderr, "%s:%zu: %s\n", path, line_no, reason.c_str());
  std::exit(2);
}

// Parses a whole token as a number; false on an empty token, a partial
// parse ("12abc") or a value out of T's range.
template <typename T>
[[nodiscard]] bool parse_token(const std::string& token, T* out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

[[nodiscard]] DynamicStream read_stream(Vertex n, const char* path) {
  DynamicStream stream(n);
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(2);
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    if (tokens.size() < 3) {
      reject_line(path, line_no, "expected \"u v delta [weight]\"");
    }
    if (tokens.size() > 4) {
      reject_line(path, line_no, "trailing garbage '" + tokens[4] + "'");
    }
    EdgeUpdate update;
    for (std::size_t i = 0; i < 2; ++i) {
      Vertex& endpoint = i == 0 ? update.u : update.v;
      if (!parse_token(tokens[i], &endpoint)) {
        reject_line(path, line_no, "bad vertex '" + tokens[i] + "'");
      }
      if (endpoint >= n) {
        reject_line(path, line_no,
                    "vertex " + tokens[i] + " out of range (n = " +
                        std::to_string(n) + ")");
      }
    }
    if (!parse_token(tokens[2], &update.delta)) {
      reject_line(path, line_no, "bad delta '" + tokens[2] + "'");
    }
    if (tokens.size() == 4 &&
        (!parse_token(tokens[3], &update.weight) ||
         !std::isfinite(update.weight))) {
      reject_line(path, line_no, "bad weight '" + tokens[3] + "'");
    }
    stream.push(update);
  }
  return stream;
}

void print_edges(const Graph& g) {
  for (const auto& e : g.edges()) {
    std::printf("%u %u %.6g\n", e.u, e.v, e.weight);
  }
}

int run_spanner(Vertex n, unsigned k, const DynamicStream& stream) {
  TwoPassConfig config;
  config.k = k;
  TwoPassSpanner builder(n, config);
  const TwoPassResult result = builder.run(stream);
  std::fprintf(stderr, "spanner: %zu edges, stretch bound %.0f, 2 passes\n",
               result.spanner.m(), std::pow(2.0, k));
  print_edges(result.spanner);
  return 0;
}

int run_additive(Vertex n, double d, const DynamicStream& stream) {
  AdditiveConfig config;
  config.d = d;
  AdditiveSpannerSketch sketch(n, config);
  const AdditiveResult result = sketch.run(stream);
  std::fprintf(stderr, "additive spanner: %zu edges, surplus O(n/d)=O(%.0f), "
               "1 pass\n",
               result.spanner.m(), static_cast<double>(n) / d);
  print_edges(result.spanner);
  return 0;
}

int run_forest(Vertex n, const DynamicStream& stream) {
  AgmConfig config;
  AgmGraphSketch sketch(n, config);
  sketch.absorb(stream.updates());
  const ForestResult forest = agm_spanning_forest(sketch);
  std::fprintf(stderr, "spanning forest: %zu edges in %zu rounds%s\n",
               forest.edges.size(), forest.rounds_used,
               forest.complete ? "" : " (INCOMPLETE)");
  for (const auto& e : forest.edges) std::printf("%u %u\n", e.u, e.v);
  return forest.complete ? 0 : 1;
}

int run_demo() {
  const Graph g = erdos_renyi_gnm(200, 1200, 99);
  const DynamicStream stream = DynamicStream::with_churn(g, 600, 100);
  std::fprintf(stderr, "demo: n=200 m=%zu stream=%zu updates\n", g.m(),
               stream.size());
  return run_spanner(200, 2, stream);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "demo") == 0) return run_demo();
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: %s spanner|additive <n> <k|d> [stream.txt]\n"
                 "       %s forest <n> [stream.txt]\n"
                 "       %s demo\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  const std::string mode = argv[1];
  const auto n = static_cast<kw::Vertex>(std::strtoul(argv[2], nullptr, 10));
  if (mode == "forest") {
    const kw::DynamicStream stream = read_stream(n, argv[3]);
    return run_forest(n, stream);
  }
  if (argc < 5) {
    std::fprintf(stderr, "%s mode needs a stream file\n", mode.c_str());
    return 2;
  }
  const kw::DynamicStream stream = read_stream(n, argv[4]);
  if (mode == "spanner") {
    return run_spanner(
        n, static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10)), stream);
  }
  if (mode == "additive") {
    return run_additive(n, std::strtod(argv[3], nullptr), stream);
  }
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
