// Graph-algorithm tests: BFS, SSSP, PR, CC, TC — both backends against
// serial gold references, across pattern categories and tile sizes.
#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/tc.hpp"
#include "graphblas/ops.hpp"
#include "sparse/convert.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <vector>

namespace bitgb {
namespace {

// (tile dim, matrix index) — every algorithm must agree with its gold
// reference on every backend for every combination.
class AlgoTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  gb::Graph make_graph() {
    const auto [dim, mi] = GetParam();
    gb::GraphOptions opts;
    opts.tile_dim = dim;
    return gb::Graph::from_csr(test::small_matrix(mi).second, opts);
  }
};

TEST_P(AlgoTest, BfsBothBackendsMatchGold) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  const auto gold = algo::bfs_gold(g.adjacency(), 0);
  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    const auto res = algo::bfs(test::ctx(backend), g, {0});
    EXPECT_EQ(gold, res.levels) << gb::backend_name(backend);
  }
}

TEST_P(AlgoTest, SsspBothBackendsMatchGold) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  const auto gold = algo::sssp_gold(g.adjacency(), 0);
  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    const auto res = algo::sssp(test::ctx(backend), g, {0});
    test::expect_vectors_near(gold, res.dist);
  }
}

TEST_P(AlgoTest, PageRankBothBackendsMatchGold) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  const auto gold = algo::pagerank_gold(g.adjacency());
  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    const auto res = algo::pagerank(test::ctx(backend), g);
    test::expect_vectors_near(gold, res.rank, 1e-4);
  }
}

TEST_P(AlgoTest, CcBothBackendsMatchGold) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  const auto gold = algo::cc_gold(g.adjacency());
  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    const auto res = algo::connected_components(test::ctx(backend), g);
    EXPECT_EQ(gold, res.component) << gb::backend_name(backend);
  }
}

TEST_P(AlgoTest, TcBothBackendsMatchGold) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  const auto gold = algo::tc_gold(g.adjacency());
  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    EXPECT_EQ(gold, algo::triangle_count(test::ctx(backend), g))
        << gb::backend_name(backend);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndMatrices, AlgoTest,
    ::testing::Combine(::testing::ValuesIn({4, 8, 16, 32}),
                       ::testing::ValuesIn({2, 4, 6, 7, 8, 9, 10, 11})),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_" +
             test::kSmallMatrixOracle[static_cast<std::size_t>(
                                          std::get<1>(info.param))]
                 .name;
    });

// --- targeted semantic checks on known graphs ---

TEST(Bfs, PathGraphLevelsAreDistances) {
  Coo path{6, 6, {}, {}, {}};
  for (vidx_t i = 0; i + 1 < 6; ++i) path.push(i, i + 1);
  const gb::Graph g = gb::Graph::from_coo(path);
  const auto res = algo::bfs(test::ctx(gb::Backend::kBit), g, {0});
  for (vidx_t i = 0; i < 6; ++i) {
    EXPECT_EQ(i, res.levels[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(5, res.iterations);
}

TEST(Bfs, DisconnectedComponentStaysUnreached) {
  Coo two{6, 6, {}, {}, {}};
  two.push(0, 1);
  two.push(3, 4);
  const gb::Graph g = gb::Graph::from_coo(two);
  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    const auto res = algo::bfs(test::ctx(backend), g, {0});
    EXPECT_EQ(algo::kUnreached, res.levels[3]);
    EXPECT_EQ(algo::kUnreached, res.levels[5]);
    EXPECT_EQ(1, res.levels[1]);
  }
}

TEST(Bfs, SourceOnlyGraph) {
  const gb::Graph g = gb::Graph::from_coo(Coo{4, 4, {}, {}, {}});
  const auto res = algo::bfs(test::ctx(gb::Backend::kBit), g, {2});
  EXPECT_EQ(0, res.levels[2]);
  EXPECT_EQ(algo::kUnreached, res.levels[0]);
}

TEST(Bfs, PullLevelsThatCloseMostTileRowsMatchGold) {
  // Layered graph on n = 4099 vertices (not a multiple of 4): the source
  // reaches layer 1 (vertices 1..2999), layer 2 is every v >= 3000 with
  // v % 5 != 0, layer 3 those with v % 5 == 0 but v % 25 != 0, and
  // layer 4 the rest.  Each vertex links to two random vertices of the
  // layer before it.  Levels 2-4 pull dense frontiers while layer 1's
  // tile-rows stay closed; from level 3 on, the open tile-rows are open
  // in one or two rows.
  constexpr vidx_t n = 4099;
  const auto layer = [](vidx_t v) {
    if (v == 0) return 0;
    if (v < 3000) return 1;
    return v % 5 != 0 ? 2 : v % 25 != 0 ? 3 : 4;
  };
  std::vector<std::vector<vidx_t>> layers(5);
  for (vidx_t v = 0; v < n; ++v) layers[layer(v)].push_back(v);
  std::mt19937 rng(7);
  Coo coo{n, n, {}, {}, {}};
  for (vidx_t v = 1; v < n; ++v) {
    const auto& prev = layers[layer(v) - 1];
    std::uniform_int_distribution<std::size_t> pick(0, prev.size() - 1);
    for (int e = 0; e < 2; ++e) coo.push(v, prev[pick(rng)]);
  }
  for (const int dim : {4, 8}) {
    SCOPED_TRACE(dim);
    gb::GraphOptions opts;
    opts.tile_dim = dim;
    const gb::Graph g = gb::Graph::from_coo(coo, opts);
    const auto gold = algo::bfs_gold(g.adjacency(), 0);

    // The premise: some level pulls (frontier >= n / 32) while more than
    // half of the tile-rows hold only vertices already visited.
    double most_closed = 0.0;
    for (std::int32_t level = 1; level <= 4; ++level) {
      const auto frontier = std::count(gold.begin(), gold.end(), level - 1);
      if (frontier < n / gb::kPushPullDenominator) continue;
      const vidx_t tile_rows = (n + dim - 1) / dim;
      vidx_t closed = 0;
      for (vidx_t tr = 0; tr < tile_rows; ++tr) {
        bool all_visited = true;
        for (vidx_t v = tr * dim; v < std::min(n, (tr + 1) * dim); ++v) {
          const auto l = gold[static_cast<std::size_t>(v)];
          all_visited = all_visited && l != algo::kUnreached && l < level;
        }
        closed += all_visited ? 1 : 0;
      }
      most_closed = std::max(most_closed,
                             static_cast<double>(closed) / tile_rows);
    }
    EXPECT_GT(most_closed, 0.5);

    for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
      const auto res = algo::bfs(test::ctx(backend), g, {0});
      EXPECT_EQ(gold, res.levels) << gb::backend_name(backend);
      EXPECT_EQ(4, res.iterations) << gb::backend_name(backend);
    }
  }
}

TEST(Sssp, UnitWeightsEqualBfsLevels) {
  const gb::Graph g = gb::Graph::from_coo(gen_road(8, 8, 0.0, 20));
  const auto bfs_res = algo::bfs(test::ctx(gb::Backend::kBit), g, {0});
  const auto sssp_res = algo::sssp(test::ctx(gb::Backend::kBit), g, {0});
  for (vidx_t v = 0; v < g.num_vertices(); ++v) {
    const auto lvl = bfs_res.levels[static_cast<std::size_t>(v)];
    const auto d = sssp_res.dist[static_cast<std::size_t>(v)];
    if (lvl == algo::kUnreached) {
      EXPECT_TRUE(std::isinf(d));
    } else {
      EXPECT_FLOAT_EQ(static_cast<value_t>(lvl), d);
    }
  }
}

TEST(PageRank, SumsToOneAndUniformOnRegularGraph) {
  // On a cycle (2-regular), PageRank is exactly uniform.
  Coo cycle{8, 8, {}, {}, {}};
  for (vidx_t i = 0; i < 8; ++i) cycle.push(i, (i + 1) % 8);
  const gb::Graph g = gb::Graph::from_coo(cycle);
  const auto res = algo::pagerank(test::ctx(gb::Backend::kBit), g);
  double sum = 0.0;
  for (const value_t r : res.rank) {
    EXPECT_NEAR(1.0 / 8.0, r, 1e-5);
    sum += r;
  }
  EXPECT_NEAR(1.0, sum, 1e-4);
}

TEST(PageRank, DanglingMassIsRedistributed) {
  // Directed edge 0->1 only: vertex 1 is dangling; ranks must still
  // sum to 1.
  Coo a{3, 3, {}, {}, {}};
  a.push(0, 1);
  gb::GraphOptions opts;
  opts.symmetrize = false;
  const gb::Graph g = gb::Graph::from_coo(a, opts);
  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    const auto res = algo::pagerank(test::ctx(backend), g);
    double sum = 0.0;
    for (const value_t r : res.rank) sum += r;
    EXPECT_NEAR(1.0, sum, 1e-4) << gb::backend_name(backend);
    // 1 receives 0's rank on top of the teleport share.
    EXPECT_GT(res.rank[1], res.rank[0]);
  }
}

TEST(PageRank, LargeDanglingHeavyGraphMatchesDoubleOracle) {
  // Regression for the float dangling-mass accumulation: on a large
  // dangling-heavy graph, summing n rank terms of magnitude ~1/n in a
  // float accumulator loses the tail (the accumulator dwarfs each
  // increment), the redistributed mass drifts every iteration, and
  // convergence stalls near epsilon.  One hub fans out to 8 targets;
  // the other ~1M vertices are all dangling.
  constexpr vidx_t n = 1 << 20;
  Coo a{n, n, {}, {}, {}};
  for (vidx_t t = 1; t <= 8; ++t) a.push(0, t);
  gb::GraphOptions gopts;
  gopts.symmetrize = false;
  gopts.tile_dim = 8;
  const gb::Graph g = gb::Graph::from_coo(a, gopts);

  algo::PageRankParams opts;
  opts.max_iterations = 200;
  opts.epsilon = 1e-9;

  // Test-side all-double oracle of the same formula.
  std::vector<double> pr(static_cast<std::size_t>(n), 1.0 / n);
  const double teleport = (1.0 - static_cast<double>(opts.alpha)) / n;
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    double dangling = 0.0;
    for (vidx_t v = 1; v < n; ++v) dangling += pr[static_cast<std::size_t>(v)];
    const double hub_share = pr[0] / 8.0;
    double delta = 0.0;
    for (vidx_t v = 0; v < n; ++v) {
      const double next = teleport + static_cast<double>(opts.alpha) *
                                         ((v >= 1 && v <= 8 ? hub_share : 0.0) +
                                          dangling / n);
      delta += std::abs(next - pr[static_cast<std::size_t>(v)]);
      pr[static_cast<std::size_t>(v)] = next;
    }
    if (delta < opts.epsilon) break;
  }

  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    const auto res = algo::pagerank(test::ctx(backend), g, opts);
    // The fixed accumulation reaches a float fixpoint well before the
    // cap instead of oscillating on the lost-mass noise floor.
    EXPECT_LT(res.iterations, opts.max_iterations)
        << gb::backend_name(backend);
    // And the ranks track the double oracle to float accuracy; the old
    // accumulation was off by ~1e-3 relative on the dangling share.
    double max_rel = 0.0;
    for (vidx_t v = 0; v < n; ++v) {
      const double got = res.rank[static_cast<std::size_t>(v)];
      const double want = pr[static_cast<std::size_t>(v)];
      max_rel = std::max(max_rel, std::abs(got - want) / want);
    }
    EXPECT_LT(max_rel, 1e-4) << gb::backend_name(backend);
  }
}

TEST(PageRank, HonorsIterationCap) {
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(8, 1500, 21));
  algo::PageRankParams opts;
  opts.max_iterations = 3;
  opts.epsilon = 0.0;  // never converges early
  const auto res = algo::pagerank(test::ctx(gb::Backend::kBit), g, opts);
  EXPECT_EQ(3, res.iterations);
}

TEST(Cc, CountsComponentsOfForest) {
  // Three separate edges + 2 isolated vertices = 5 components.
  Coo f{8, 8, {}, {}, {}};
  f.push(0, 1);
  f.push(2, 3);
  f.push(4, 5);
  const gb::Graph g = gb::Graph::from_coo(f);
  const auto res = algo::connected_components(test::ctx(gb::Backend::kBit), g);
  std::map<vidx_t, int> sizes;
  for (const vidx_t c : res.component) ++sizes[c];
  EXPECT_EQ(5u, sizes.size());
  // Labels are component minima.
  EXPECT_EQ(0, res.component[1]);
  EXPECT_EQ(2, res.component[3]);
  EXPECT_EQ(6, res.component[6]);
}

TEST(Tc, KnownTriangleCounts) {
  // K4 has 4 triangles.
  Coo k4{4, 4, {}, {}, {}};
  for (vidx_t i = 0; i < 4; ++i) {
    for (vidx_t j = 0; j < 4; ++j) {
      if (i != j) k4.push(i, j);
    }
  }
  const gb::Graph g4 = gb::Graph::from_coo(k4);
  EXPECT_EQ(4, algo::triangle_count(test::ctx(gb::Backend::kBit), g4));
  EXPECT_EQ(4, algo::triangle_count(test::ctx(gb::Backend::kReference), g4));

  // Mycielskian graphs are triangle-free by construction.
  const gb::Graph gm = gb::Graph::from_coo(gen_mycielskian(7));
  EXPECT_EQ(0, algo::triangle_count(test::ctx(gb::Backend::kBit), gm));
}

TEST(Tc, CycleHasNoTrianglesSquareOfCycleDoes) {
  Coo c5{5, 5, {}, {}, {}};
  for (vidx_t i = 0; i < 5; ++i) c5.push(i, (i + 1) % 5);
  const gb::Graph g = gb::Graph::from_coo(c5);
  EXPECT_EQ(0, algo::triangle_count(test::ctx(gb::Backend::kBit), g));
}

}  // namespace
}  // namespace bitgb
