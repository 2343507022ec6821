// Differential backend tests: for every algorithm, the bit (B2SR)
// backend must produce the same result as the reference (GraphBLAST-
// substitute) backend — directly against each other, not only via the
// gold references — over the small_matrices() oracle corpus plus a set
// of seeded random generator graphs at every tile size.
//
// Exactness notes: BFS/MSBFS levels, CC labels, SSSP distances and
// round counts (min-plus over unit weights), MIS membership, coloring,
// and TC counts are combinatorial or min/max-exact, so equality is
// bitwise.  PageRank sums floats in backend-specific order (the bit
// backend tree-reduces full words), so it compares within tolerance.
#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/coloring.hpp"
#include "algorithms/mis.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/tc.hpp"
#include "graphblas/ops.hpp"
#include "sparse/convert.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace bitgb {
namespace {

/// Seeded generator graphs beyond the oracle corpus: one per pattern
/// family, sized to cross several tile-rows at every dim, none a
/// multiple of 32.
const std::vector<std::pair<std::string, Csr>>& generator_graphs() {
  static const auto graphs = [] {
    std::vector<std::pair<std::string, Csr>> out;
    out.emplace_back("gen_random_201", coo_to_csr(gen_random(201, 4000, 91)));
    out.emplace_back("gen_banded_190", coo_to_csr(gen_banded(190, 7, 0.6, 92)));
    out.emplace_back("gen_stripe_170", coo_to_csr(gen_stripe(170, 4, 0.7, 93)));
    out.emplace_back("gen_road_13x11", coo_to_csr(gen_road(13, 11, 0.05, 94)));
    out.emplace_back("gen_rmat_s7", coo_to_csr(gen_rmat(7, 900, 95)));
    out.emplace_back("gen_hybrid_145", coo_to_csr(gen_hybrid(145, 96)));
    out.emplace_back("gen_road_32x32", coo_to_csr(gen_road(32, 32, 0.02, 97)));
    return out;
  }();
  return graphs;
}

/// All differential inputs: the oracle corpus followed by the generator
/// graphs (indices [0, kSmallMatrixCount) are the corpus).
const std::pair<std::string, Csr>& differential_matrix(int mi) {
  if (mi < test::kSmallMatrixCount) return test::small_matrix(mi);
  return generator_graphs().at(
      static_cast<std::size_t>(mi - test::kSmallMatrixCount));
}

const int kDifferentialMatrixCount =
    test::kSmallMatrixCount + static_cast<int>(generator_graphs().size());

// (tile dim, matrix index): every algorithm must agree across backends
// for every combination.
class DifferentialTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  gb::Graph make_graph() const {
    const auto [dim, mi] = GetParam();
    gb::GraphOptions opts;
    opts.tile_dim = dim;
    return gb::Graph::from_csr(differential_matrix(mi).second, opts);
  }
  std::string name() const { return differential_matrix(std::get<1>(GetParam())).first; }
};

TEST_P(DifferentialTest, Bfs) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  const auto ref = algo::bfs(test::ctx(gb::Backend::kReference), g, {0});
  const auto bit = algo::bfs(test::ctx(gb::Backend::kBit), g, {0});
  EXPECT_EQ(ref.levels, bit.levels) << name();
}

TEST_P(DifferentialTest, Cc) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  const auto ref = algo::connected_components(test::ctx(gb::Backend::kReference), g);
  const auto bit = algo::connected_components(test::ctx(gb::Backend::kBit), g);
  EXPECT_EQ(ref.component, bit.component) << name();
}

TEST_P(DifferentialTest, PageRank) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  const auto ref = algo::pagerank(test::ctx(gb::Backend::kReference), g);
  const auto bit = algo::pagerank(test::ctx(gb::Backend::kBit), g);
  test::expect_vectors_near(ref.rank, bit.rank, 1e-4);
}

TEST_P(DifferentialTest, Sssp) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  for (const vidx_t src : test::traversal_sources(g.adjacency())) {
    const auto ref =
        algo::sssp(test::ctx(gb::Backend::kReference), g, {src});
    for (const int threads : {1, 4}) {
      const auto bit = algo::sssp(
          test::ctx(gb::Backend::kBit).with_threads(threads), g, {src});
      EXPECT_EQ(ref.dist, bit.dist)
          << name() << " source " << src << " threads " << threads;
      EXPECT_EQ(ref.iterations, bit.iterations)
          << name() << " source " << src << " threads " << threads;
    }
  }
}

TEST_P(DifferentialTest, Mis) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  const auto ref = algo::maximal_independent_set(test::ctx(gb::Backend::kReference).with_seed(5), g);
  const auto bit = algo::maximal_independent_set(test::ctx(gb::Backend::kBit).with_seed(5), g);
  EXPECT_EQ(ref.in_set, bit.in_set) << name();
  EXPECT_TRUE(algo::is_valid_mis(g.adjacency(), bit.in_set)) << name();
}

TEST_P(DifferentialTest, Coloring) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  const auto ref = algo::greedy_coloring(test::ctx(gb::Backend::kReference).with_seed(5), g);
  const auto bit = algo::greedy_coloring(test::ctx(gb::Backend::kBit).with_seed(5), g);
  EXPECT_EQ(ref.color, bit.color) << name();
  EXPECT_TRUE(algo::is_valid_coloring(g.adjacency(), bit.color)) << name();
}

TEST_P(DifferentialTest, Tc) {
  const gb::Graph g = make_graph();
  if (g.num_vertices() == 0) return;
  EXPECT_EQ(algo::triangle_count(test::ctx(gb::Backend::kReference), g),
            algo::triangle_count(test::ctx(gb::Backend::kBit), g))
      << name();
}

INSTANTIATE_TEST_SUITE_P(
    AllDimsAllMatrices, DifferentialTest,
    ::testing::Combine(::testing::ValuesIn(kTileDims),
                       ::testing::Range(0, kDifferentialMatrixCount)),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DifferentialFixture, OracleCorpusIsIntact) {
  test::expect_small_matrices_match_oracle();
  for (const auto& [name, m] : generator_graphs()) {
    EXPECT_TRUE(m.validate()) << name;
    EXPECT_GT(m.nnz(), 0) << name;
  }
}

TEST(DifferentialFixture, RoadGraphSsspPushesPullsAndPushesAgain) {
  // The premise of gen_road_32x32 in the Sssp cases: from some source,
  // a pull round (changed set >= n / 32) has push rounds before and
  // after it.  gen_road emits both directions of every edge, so its CSR
  // is the graph the cases build.
  const Csr& a = generator_graphs().back().second;
  ASSERT_EQ("gen_road_32x32", generator_graphs().back().first);
  bool alternates = false;
  for (const vidx_t src : test::traversal_sources(a)) {
    const std::string rounds = test::sssp_round_directions(
        algo::sssp_gold(a, src), a.nrows / gb::kPushPullDenominator);
    const auto first_pull = rounds.find('l');
    alternates = alternates ||
                 (first_pull != std::string::npos && first_pull > 0 &&
                  rounds.find('p', first_pull) != std::string::npos);
  }
  EXPECT_TRUE(alternates);
}

}  // namespace
}  // namespace bitgb
