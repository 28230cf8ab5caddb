#include "lowerbound/ind_game.h"

#include <utility>
#include <vector>

#include "core/additive_spanner.h"
#include "util/random.h"

namespace kw {

namespace {

struct GameInstance {
  Vertex n = 0;
  std::vector<Edge> alice_edges;        // the blocks' edges
  std::vector<Edge> bob_edges;          // the path edges
  Vertex query_u = 0, query_v = 0;      // Bob's index = pair in block J
  bool truth = false;                   // X_I: is {U,V} an edge of G_J?
};

// Builds one random instance of the Section 5 construction.
[[nodiscard]] GameInstance make_instance(const IndGameSetup& setup, Rng& rng) {
  const Vertex d = setup.block_size;
  const Vertex s = setup.num_blocks;
  GameInstance inst;
  inst.n = d * s;

  // Alice: s disjoint G(d, 1/2) blocks.  Track adjacency bits per block for
  // the ground truth.
  std::vector<std::vector<char>> adj(s, std::vector<char>(d * d, 0));
  for (Vertex block = 0; block < s; ++block) {
    const Vertex base = block * d;
    for (Vertex a = 0; a < d; ++a) {
      for (Vertex b = a + 1; b < d; ++b) {
        if (rng.next_bernoulli(0.5)) {
          inst.alice_edges.push_back({base + a, base + b, 1.0});
          adj[block][a * d + b] = 1;
        }
      }
    }
  }

  // Bob: one random pair per block; in block J the pair is his query.
  const Vertex query_block = static_cast<Vertex>(rng.next_below(s));
  std::vector<std::pair<Vertex, Vertex>> pairs(s);
  for (Vertex block = 0; block < s; ++block) {
    Vertex a = static_cast<Vertex>(rng.next_below(d));
    Vertex b = static_cast<Vertex>(rng.next_below(d));
    while (b == a) b = static_cast<Vertex>(rng.next_below(d));
    pairs[block] = {std::min(a, b), std::max(a, b)};
  }
  inst.query_u = query_block * d + pairs[query_block].first;
  inst.query_v = query_block * d + pairs[query_block].second;
  inst.truth = adj[query_block][pairs[query_block].first * d +
                                pairs[query_block].second] != 0;

  // Path edges {V_l, U_{l+1}} stitching consecutive blocks.
  for (Vertex block = 0; block + 1 < s; ++block) {
    const Vertex v_l = block * d + pairs[block].second;
    const Vertex u_next = (block + 1) * d + pairs[block + 1].first;
    inst.bob_edges.push_back({v_l, u_next, 1.0});
  }
  return inst;
}

}  // namespace

IndGameOutcome play_ind_game_additive(const IndGameSetup& setup,
                                      const AdditiveConfig& config,
                                      std::size_t trials) {
  Rng rng(setup.seed);
  IndGameOutcome outcome;
  outcome.trials = trials;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const GameInstance inst = make_instance(setup, rng);
    AdditiveConfig cc = config;
    cc.seed = derive_seed(setup.seed, 0x9a0 + trial);
    AdditiveSpannerSketch sketch(inst.n, cc);
    // Alice's single pass, then Bob continues the same pass with his path
    // edges...
    std::vector<EdgeUpdate> alice, bob;
    for (const auto& e : inst.alice_edges) alice.push_back({e.u, e.v});
    for (const auto& e : inst.bob_edges) bob.push_back({e.u, e.v});
    sketch.absorb(alice);
    sketch.absorb(bob);
    // ...and reads the spanner off the algorithm's state.
    sketch.finish();
    AdditiveResult result = sketch.take_result();
    outcome.state_bytes = result.nominal_bytes;
    const bool answer = result.spanner.has_edge(inst.query_u, inst.query_v);
    if (answer == inst.truth) ++outcome.correct;
  }
  return outcome;
}

IndGameOutcome play_ind_game_exact(const IndGameSetup& setup,
                                   std::size_t trials) {
  Rng rng(setup.seed);
  IndGameOutcome outcome;
  outcome.trials = trials;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const GameInstance inst = make_instance(setup, rng);
    // "Store everything": the spanner is the graph itself.
    Graph g(inst.n);
    for (const auto& e : inst.alice_edges) g.add_edge(e.u, e.v);
    for (const auto& e : inst.bob_edges) g.add_edge(e.u, e.v);
    outcome.state_bytes =
        (inst.alice_edges.size() + inst.bob_edges.size()) * 2 * sizeof(Vertex);
    if (g.has_edge(inst.query_u, inst.query_v) == inst.truth) {
      ++outcome.correct;
    }
  }
  return outcome;
}

}  // namespace kw
