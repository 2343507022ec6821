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
#include <limits>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

namespace bitgb {
namespace {

constexpr value_t kInf = std::numeric_limits<value_t>::infinity();

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
  // Min-plus over unit weights is exact: distances compare with ==, and
  // every backend and thread count runs the same number of rounds.
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  for (const vidx_t src : test::traversal_sources(g.adjacency())) {
    SCOPED_TRACE(::testing::Message() << "source " << src);
    const auto gold = algo::sssp_gold(g.adjacency(), src);
    const auto ref = algo::sssp(test::ctx(gb::Backend::kReference), g, {src});
    EXPECT_EQ(gold, ref.dist);
    for (const int threads : {1, 4}) {
      const auto bit = algo::sssp(
          test::ctx(gb::Backend::kBit).with_threads(threads), g, {src});
      EXPECT_EQ(gold, bit.dist) << "threads " << threads;
      EXPECT_EQ(ref.iterations, bit.iterations) << "threads " << threads;
    }
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

TEST(Bfs, PullClosesVerticesNoEdgeReaches) {
  // The bit pull closes the vertices no edge reaches before its first
  // level.  Two graphs on n = 771 (not a multiple of 32), each pulling
  // at least one level from its reachable source:
  //   * symmetric: an R-MAT graph on the ids v % 3 != 2, so every third
  //     vertex is isolated and the isolated rows sit in open tile-rows;
  //   * directed (`symmetrize = false`): a directed R-MAT graph with
  //     every edge into a multiple of 5 dropped, so those vertices keep
  //     their out-edges but no edge reaches them.
  // Vertices 768-770 have no edge at all.  Each graph runs from a
  // reachable source (the symmetric graph's hub, the directed graph's
  // zero-in-degree hub) and from isolated vertex 770, at every dim.
  constexpr vidx_t n = 771;
  const Coo rmat = gen_rmat(9, 3000, 17);
  Coo sym{n, n, {}, {}, {}};
  Coo dir{n, n, {}, {}, {}};
  for (std::size_t e = 0; e < rmat.row.size(); ++e) {
    const vidx_t u = rmat.row[e];
    const vidx_t v = rmat.col[e];
    sym.push(u + u / 2, v + v / 2);  // skips every id v % 3 == 2
    if (v % 5 != 0) dir.push(u, v);
  }
  for (const bool symmetric : {true, false}) {
    for (const int dim : kTileDims) {
      SCOPED_TRACE(::testing::Message()
                   << (symmetric ? "symmetric" : "directed") << " dim "
                   << dim);
      gb::GraphOptions opts;
      opts.tile_dim = dim;
      opts.symmetrize = symmetric;
      const gb::Graph g = gb::Graph::from_coo(symmetric ? sym : dir, opts);
      const Csr& a = g.adjacency();

      // The cache lists exactly the empty rows of A^T.
      const Csr at = transpose(a);
      std::vector<vidx_t> no_in;
      for (vidx_t v = 0; v < n; ++v) {
        if (at.row_cols(v).empty()) no_in.push_back(v);
      }
      EXPECT_EQ(no_in, g.no_in_edges());
      EXPECT_GT(no_in.size(), static_cast<std::size_t>(n / 5));
      EXPECT_TRUE(std::binary_search(no_in.begin(), no_in.end(), 770));

      // The reachable source: the vertex of highest out-degree, among
      // the zero-in-degree vertices on the directed graph.
      vidx_t hub = no_in.front();
      for (vidx_t v = 0; v < n; ++v) {
        const bool candidate =
            symmetric || std::binary_search(no_in.begin(), no_in.end(), v);
        if (candidate && a.row_cols(v).size() > a.row_cols(hub).size()) {
          hub = v;
        }
      }
      ASSERT_FALSE(a.row_cols(hub).empty());
      for (const vidx_t src : {hub, vidx_t{770}}) {
        SCOPED_TRACE(::testing::Message() << "source " << src);
        const auto gold = algo::bfs_gold(a, src);
        if (src == hub) {
          // The premise: some level pulls (its frontier holds at least
          // n / 32 vertices) and reaches new vertices.
          bool pulls = false;
          for (std::int32_t level = 1;; ++level) {
            const auto reached = std::count(gold.begin(), gold.end(), level);
            if (reached == 0) break;
            pulls = pulls || std::count(gold.begin(), gold.end(), level - 1) >=
                                 n / gb::kPushPullDenominator;
          }
          EXPECT_TRUE(pulls);
        }
        const auto ref =
            algo::bfs(test::ctx(gb::Backend::kReference), g, {src});
        EXPECT_EQ(gold, ref.levels);
        for (const int threads : {1, 4}) {
          const auto bit = algo::bfs(
              test::ctx(gb::Backend::kBit).with_threads(threads), g, {src});
          EXPECT_EQ(gold, bit.levels) << "threads " << threads;
          EXPECT_EQ(ref.iterations, bit.iterations) << "threads " << threads;
        }
      }
    }
  }
}

TEST(Bfs, SourceOutsideTheGraphThrows) {
  const gb::Graph g = gb::Graph::from_coo(gen_road(4, 4, 0.0, 1));
  const gb::Graph empty = gb::Graph::from_coo(Coo{0, 0, {}, {}, {}});
  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    SCOPED_TRACE(gb::backend_name(backend));
    const Context ctx = test::ctx(backend);
    EXPECT_THROW((void)algo::bfs(ctx, g, {-1}), std::invalid_argument);
    EXPECT_THROW((void)algo::bfs(ctx, g, {g.num_vertices()}),
                 std::invalid_argument);
    EXPECT_THROW((void)algo::bfs(ctx, empty, {0}), std::invalid_argument);
    EXPECT_THROW((void)algo::sssp(ctx, g, {-1}), std::invalid_argument);
    EXPECT_THROW((void)algo::sssp(ctx, g, {g.num_vertices()}),
                 std::invalid_argument);
    EXPECT_THROW((void)algo::sssp(ctx, empty, {0}), std::invalid_argument);
    // The check comes before any buffer is sized: a reused result keeps
    // what it held.
    algo::Workspace ws;
    algo::BfsResult levels;
    levels.levels = {7};
    algo::SsspResult dist;
    dist.dist = {7.0f};
    EXPECT_THROW(algo::bfs(ctx, g, {16}, ws, levels), std::invalid_argument);
    EXPECT_THROW(algo::sssp(ctx, g, {16}, ws, dist), std::invalid_argument);
    EXPECT_EQ(std::vector<std::int32_t>{7}, levels.levels);
    EXPECT_EQ(std::vector<value_t>{7.0f}, dist.dist);
  }
  try {
    (void)algo::bfs(test::ctx(gb::Backend::kBit), g, {-1});
    ADD_FAILURE() << "bfs from -1 did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ("bfs: source -1 outside [0, 16)", e.what());
  }
}

TEST(Sssp, DirectedEdgesAreFollowedFromTheSource) {
  // dist is vxm(dist, A) == mxv(A^T, dist): distances run along edge
  // direction, from the source.  The 6-vertex chain pulls every round
  // (n / 32 == 0); the directed random graph pushes while its changed
  // set is small, then pulls.
  const Coo chain = [] {
    Coo c{6, 6, {}, {}, {}};
    c.push(0, 1);
    c.push(1, 2);
    c.push(2, 3);
    c.push(4, 0);
    return c;
  }();
  const Coo random = gen_random(300, 900, 31);
  gb::GraphOptions opts;
  opts.symmetrize = false;
  for (const int dim : {4, 8, 16, 32}) {
    opts.tile_dim = dim;
    for (const Coo* coo : {&chain, &random}) {
      SCOPED_TRACE(::testing::Message() << "dim " << dim << " n " << coo->nrows);
      const gb::Graph g = gb::Graph::from_coo(*coo, opts);
      const auto gold = algo::sssp_gold(g.adjacency(), 0);
      if (coo == &random) {
        const std::string rounds = test::sssp_round_directions(
            gold, g.num_vertices() / gb::kPushPullDenominator);
        EXPECT_NE(std::string::npos, rounds.find('p')) << rounds;
        EXPECT_NE(std::string::npos, rounds.find('l')) << rounds;
      }
      const auto levels = algo::bfs_gold(g.adjacency(), 0);
      for (vidx_t v = 0; v < g.num_vertices(); ++v) {
        const auto l = levels[static_cast<std::size_t>(v)];
        EXPECT_EQ(l == algo::kUnreached ? kInf : static_cast<value_t>(l),
                  gold[static_cast<std::size_t>(v)]);
      }
      const auto ref = algo::sssp(test::ctx(gb::Backend::kReference), g, {0});
      const auto bit = algo::sssp(test::ctx(gb::Backend::kBit), g, {0});
      EXPECT_EQ(gold, ref.dist);
      EXPECT_EQ(gold, bit.dist);
      EXPECT_EQ(ref.iterations, bit.iterations);
    }
  }
  EXPECT_EQ((std::vector<value_t>{0, 1, 2, 3, kInf, kInf}),
            algo::sssp_gold(coo_to_csr(chain), 0));
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

TEST(Tc, SkewedSymmetricGraphCountsOnADegreeOrderedLower) {
  // gen_rmat(12, 1 << 15, 42) symmetrized: mean degree 14.8 against a
  // median of 3, so lower() is the degree-ordered triangle.
  const Coo edges = gen_rmat(12, 1 << 15, 42);
  for (const int dim : {4, 8, 16, 32}) {
    SCOPED_TRACE(::testing::Message() << "dim " << dim);
    gb::GraphOptions opts;
    opts.tile_dim = dim;
    const gb::Graph g = gb::Graph::from_coo(edges, opts);
    ASSERT_TRUE(degrees_skewed(g.adjacency()));
    const Csr& l = g.lower();
    EXPECT_TRUE(l.validate());
    EXPECT_EQ(g.num_edges(), 2 * l.nnz());
    const Csr natural = lower_triangle(g.adjacency());
    EXPECT_NE(natural.colind, l.colind);
    const std::int64_t gold = algo::tc_gold(g.adjacency());
    for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
      for (const int threads : {1, 4}) {
        EXPECT_EQ(gold, algo::triangle_count(
                            test::ctx(backend).with_threads(threads), g))
            << gb::backend_name(backend) << ", threads " << threads;
      }
    }
  }
}

TEST(Tc, DirectedAndEvenGraphsKeepTheNaturalLower) {
  // A directed graph keeps its order even when skewed: relabeling would
  // change which edges count as lower.  A road graph is symmetric but
  // its degrees are even.
  gb::GraphOptions directed;
  directed.symmetrize = false;
  const gb::Graph d = gb::Graph::from_coo(gen_rmat(12, 1 << 15, 42), directed);
  const gb::Graph road = gb::Graph::from_coo(gen_road(64, 64, 0.02, 3));
  EXPECT_TRUE(degrees_skewed(d.adjacency()));
  EXPECT_FALSE(degrees_skewed(road.adjacency()));
  for (const gb::Graph* g : {&d, &road}) {
    const Csr natural = lower_triangle(g->adjacency());
    EXPECT_EQ(natural.rowptr, g->lower().rowptr);
    EXPECT_EQ(natural.colind, g->lower().colind);
    const std::int64_t gold = algo::tc_gold(g->adjacency());
    for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
      EXPECT_EQ(gold, algo::triangle_count(test::ctx(backend), *g))
          << gb::backend_name(backend);
    }
  }
}

TEST(Tc, CycleHasNoTrianglesSquareOfCycleDoes) {
  Coo c5{5, 5, {}, {}, {}};
  for (vidx_t i = 0; i < 5; ++i) c5.push(i, (i + 1) % 5);
  const gb::Graph g = gb::Graph::from_coo(c5);
  EXPECT_EQ(0, algo::triangle_count(test::ctx(gb::Backend::kBit), g));
}

}  // namespace
}  // namespace bitgb
