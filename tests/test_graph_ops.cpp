// Graph facade and GraphBLAS-layer operation tests.
#include "graphblas/graph.hpp"
#include "graphblas/ops.hpp"
#include "core/pack.hpp"
#include "sparse/convert.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

namespace bitgb {
namespace {

TEST(Graph, FromCooSymmetrizesAndStripsLoops) {
  Coo a{5, 5, {}, {}, {}};
  a.push(0, 1);
  a.push(2, 2);  // self loop
  a.push(3, 4);
  const gb::Graph g = gb::Graph::from_coo(a);
  EXPECT_TRUE(is_symmetric(g.adjacency()));
  for (vidx_t r = 0; r < g.num_vertices(); ++r) {
    for (const vidx_t c : g.adjacency().row_cols(r)) EXPECT_NE(r, c);
  }
  EXPECT_EQ(4, g.num_edges());  // 2 undirected edges
}

TEST(Graph, AdjacencyHoldsNoSpareCapacity) {
  // Construction sizes each structural pass from a count, so the CSR a
  // Graph keeps for its lifetime carries no push_back slack; the lower
  // triangle that prewarm builds is sized the same way.
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(9, 4096, 5));
  const Csr& a = g.adjacency();
  EXPECT_EQ(a.colind.size(), a.colind.capacity());
  EXPECT_EQ(a.val.size(), a.val.capacity());
  EXPECT_EQ(g.lower().colind.size(), g.lower().colind.capacity());
  gb::GraphOptions keep_loops;
  keep_loops.strip_self_loops = false;
  const gb::Graph h = gb::Graph::from_coo(gen_rmat(9, 4096, 5), keep_loops);
  EXPECT_EQ(h.adjacency().colind.size(), h.adjacency().colind.capacity());
}

TEST(Graph, RejectsNonSquareAdjacency) {
  // An adjacency indexes vertices by both row and column: symmetrize
  // would read past A^T's rowptr, and the algorithms would index their
  // n-sized vectors by column ids >= n.
  for (const auto& [nrows, ncols] : {std::pair{6, 2}, std::pair{2, 6}}) {
    Coo a{nrows, ncols, {}, {}, {}};
    a.push(1, 1);
    a.push(nrows - 1, ncols - 1);
    for (const bool symmetrize : {true, false}) {
      gb::GraphOptions opts;
      opts.symmetrize = symmetrize;
      EXPECT_THROW((void)gb::Graph::from_coo(a, opts), std::invalid_argument)
          << nrows << " x " << ncols << " symmetrize=" << symmetrize;
    }
  }
}

TEST(Graph, DirectedOptionKeepsAsymmetry) {
  Coo a{4, 4, {}, {}, {}};
  a.push(0, 1);
  gb::GraphOptions opts;
  opts.symmetrize = false;
  const gb::Graph g = gb::Graph::from_coo(a, opts);
  EXPECT_EQ(1, g.num_edges());
  EXPECT_FALSE(is_symmetric(g.adjacency()));
}

TEST(Graph, ExplicitTileDimIsHonored) {
  gb::GraphOptions opts;
  opts.tile_dim = 16;
  const gb::Graph g =
      gb::Graph::from_coo(gen_random(64, 300, 1), opts);
  EXPECT_EQ(16, g.tile_dim());
  EXPECT_EQ(16, g.packed().tile_dim());
}

TEST(Graph, AutoTileDimPicksSupportedSize) {
  const gb::Graph g = gb::Graph::from_coo(gen_banded(256, 8, 0.8, 2));
  const int d = g.tile_dim();
  EXPECT_TRUE(d == 4 || d == 8 || d == 16 || d == 32);
}

TEST(Graph, PackedMatchesAdjacency) {
  const gb::Graph g = gb::Graph::from_coo(gen_hybrid(128, 3));
  const Csr back = unpack_any(g.packed());
  EXPECT_EQ(g.adjacency().rowptr, back.rowptr);
  EXPECT_EQ(g.adjacency().colind, back.colind);
}

TEST(Graph, PackedTransposeMatchesAdjacencyTranspose) {
  gb::GraphOptions opts;
  opts.symmetrize = false;  // make transpose non-trivial
  const gb::Graph g = gb::Graph::from_coo(gen_random(90, 700, 4), opts);
  const Csr back = unpack_any(g.packed_t());
  EXPECT_EQ(g.adjacency_t().rowptr, back.rowptr);
  EXPECT_EQ(g.adjacency_t().colind, back.colind);
}

TEST(Graph, SymmetricGraphIsItsOwnTranspose) {
  // A symmetrized adjacency equals its transpose, so the transposed
  // accessors return A's own formats instead of second copies.
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(8, 1500, 5));
  EXPECT_EQ(&g.adjacency_t(), &g.adjacency());
  EXPECT_EQ(&g.packed_t(), &g.packed());
  // The unit-valued copy keeps its own floats: the reference baseline
  // reads them.
  const Csr& unit = g.unit_adjacency_t();
  EXPECT_NE(&unit, &g.adjacency());
  EXPECT_EQ(unit.colind, g.adjacency().colind);
  EXPECT_EQ(unit.val.size(), static_cast<std::size_t>(g.num_edges()));
}

TEST(Graph, SymmetricGraphReportsItsTransposesWithA) {
  // kFmtCsrT from construction, and kFmtB2srT whenever kFmtB2sr exists,
  // whichever accessor packed it.
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(8, 1500, 6));
  EXPECT_EQ(gb::kFmtCsr | gb::kFmtCsrT, g.formats());
  (void)g.packed_t();
  EXPECT_EQ(gb::kFmtCsr | gb::kFmtCsrT | gb::kFmtB2sr | gb::kFmtB2srT,
            g.formats());
  const gb::Graph h = gb::Graph::from_coo(gen_rmat(8, 1500, 6));
  (void)h.packed();
  EXPECT_EQ(gb::kFmtCsr | gb::kFmtCsrT | gb::kFmtB2sr | gb::kFmtB2srT,
            h.formats());
  h.prewarm(gb::kBitFormats);
  EXPECT_EQ(gb::kBitFormats, h.formats());
}

TEST(Graph, DirectedTransposesStayLazyAndSeparate) {
  gb::GraphOptions opts;
  opts.symmetrize = false;
  opts.tile_dim = 8;
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(8, 1500, 5), opts);
  EXPECT_EQ(gb::kFmtCsr, g.formats());

  const Csr& t = g.adjacency_t();
  EXPECT_EQ(gb::kFmtCsr | gb::kFmtCsrT, g.formats());
  EXPECT_NE(&t, &g.adjacency());
  const Csr want = transpose(g.adjacency());
  EXPECT_EQ(want.rowptr, t.rowptr);
  EXPECT_EQ(want.colind, t.colind);
  EXPECT_NE(want.colind, g.adjacency().colind);  // really directed

  const auto& pt = g.packed_t().as<8>();
  EXPECT_EQ(0u, g.formats() & gb::kFmtB2sr);  // A itself is not packed
  EXPECT_NE(static_cast<const void*>(&pt),
            static_cast<const void*>(&g.packed().as<8>()));
  const B2srAny want_packed = pack_any(want, 8);
  EXPECT_EQ(want_packed.as<8>().tile_rowptr, pt.tile_rowptr);
  EXPECT_EQ(want_packed.as<8>().tile_colind, pt.tile_colind);
  EXPECT_TRUE(want_packed.as<8>().bits == pt.bits);
}

TEST(Graph, DegreesMatchRowLengths) {
  const gb::Graph g = gb::Graph::from_coo(gen_road(9, 9, 0.0, 5));
  const auto& deg = g.degrees();
  for (vidx_t r = 0; r < g.num_vertices(); ++r) {
    EXPECT_EQ(static_cast<vidx_t>(g.adjacency().row_cols(r).size()),
              deg[static_cast<std::size_t>(r)]);
  }
}

TEST(Graph, FixturePatternsRoundTripThroughEveryTileDim) {
  // The facade must keep adjacency and packed form in sync for every
  // pattern category at every supported tile size.
  for (const auto& [name, m] : test::small_matrices_cached()) {
    SCOPED_TRACE(name);
    for (const int dim : kTileDims) {
      gb::GraphOptions opts;
      opts.tile_dim = dim;
      const gb::Graph g = gb::Graph::from_csr(m, opts);
      EXPECT_EQ(dim, g.tile_dim());
      EXPECT_EQ(g.adjacency().nnz(), g.num_edges());
      const Csr back = unpack_any(g.packed());
      EXPECT_EQ(g.adjacency().rowptr, back.rowptr) << "dim " << dim;
      EXPECT_EQ(g.adjacency().colind, back.colind) << "dim " << dim;
    }
  }
}

TEST(RefOps, PushAndPullAgree) {
  const Csr a = symmetrize(coo_to_csr(gen_random(80, 500, 6)));
  const Csr at = transpose(a);
  std::vector<std::uint8_t> visited(80, 0);
  std::vector<vidx_t> frontier = {0, 5, 17};
  std::vector<std::uint8_t> frontier_dense(80, 0);
  for (const vidx_t u : frontier) frontier_dense[u] = 1;
  visited[0] = visited[5] = visited[17] = 1;

  const Context ctx;
  std::vector<vidx_t> pushed;
  gb::ref_vxm_bool_push(ctx, a, frontier, visited, pushed);
  std::vector<std::uint8_t> pulled;
  gb::ref_vxm_bool_pull(ctx, at, frontier_dense, visited, pulled);
  std::vector<vidx_t> pulled_list;
  for (vidx_t v = 0; v < 80; ++v) {
    if (pulled[static_cast<std::size_t>(v)]) pulled_list.push_back(v);
  }
  EXPECT_EQ(pushed, pulled_list);
}

TEST(RefOps, WeightedMxvWithUnitValuesEqualsBinaryMxv) {
  const Csr a = coo_to_csr(gen_banded(60, 4, 0.7, 12));
  Csr unit = a;
  unit.val.assign(static_cast<std::size_t>(a.nnz()), 1.0f);
  const auto x = test::random_vector(60, 0.3, 13);

  const Context ctx;
  std::vector<value_t> y_bin;
  std::vector<value_t> y_wgt;
  gb::ref_mxv<MinPlusOp>(ctx, a, x, y_bin);
  gb::ref_mxv_weighted<MinPlusOp>(ctx, unit, x, y_wgt);
  test::expect_vectors_near(y_bin, y_wgt);

  gb::ref_mxv<PlusTimesOp>(ctx, a, x, y_bin);
  gb::ref_mxv_weighted<PlusTimesOp>(ctx, unit, x, y_wgt);
  test::expect_vectors_near(y_bin, y_wgt, 1e-4);

  // The listed-rows form writes exactly the listed rows.
  std::vector<vidx_t> rows;
  for (vidx_t r = 1; r < 60; r += 3) rows.push_back(r);
  std::vector<value_t> y_rows(60, -1.0f);
  gb::ref_mxv_weighted_rows<PlusTimesOp>(ctx, unit, rows, x, y_rows);
  for (vidx_t r = 0; r < 60; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(r % 3 == 1 ? y_wgt[i] : -1.0f, y_rows[i]) << "row " << r;
  }
}

TEST(RefOps, WeightedMxvUsesStoredWeights) {
  Coo a{2, 2, {}, {}, {}};
  a.push(0, 1, 5.0f);  // min-plus: dist + 5
  const Csr c = coo_to_csr(a);
  std::vector<value_t> y;
  gb::ref_mxv_weighted<MinPlusOp>(Context{}, c, {0.0f, 2.0f}, y);
  EXPECT_FLOAT_EQ(7.0f, y[0]);  // 2 + 5
  EXPECT_EQ(MinPlusOp::identity, y[1]);
}

TEST(Graph, UnitAdjacencyCarriesOnes) {
  const gb::Graph g = gb::Graph::from_coo(gen_random(30, 120, 14));
  const Csr& ut = g.unit_adjacency_t();
  EXPECT_EQ(g.adjacency_t().rowptr, ut.rowptr);
  EXPECT_EQ(g.adjacency_t().colind, ut.colind);
  ASSERT_EQ(static_cast<std::size_t>(ut.nnz()), ut.val.size());
  for (const value_t v : ut.val) EXPECT_FLOAT_EQ(1.0f, v);
}

TEST(BitOps, VxmBoolMaskedMatchesRefPush) {
  const Csr a = symmetrize(coo_to_csr(gen_random(96, 600, 9)));
  const Csr at = transpose(a);
  const B2sr8 at_packed = pack_from_csr<8>(at);

  std::vector<std::uint8_t> visited(96, 0);
  std::vector<vidx_t> frontier = {3, 40};
  visited[3] = visited[40] = 1;
  std::vector<vidx_t> expected;
  gb::ref_vxm_bool_push(Context{}, a, frontier, visited, expected);

  PackedVec8 f(96);
  PackedVec8 vis(96);
  f.set(3);
  f.set(40);
  vis.set(3);
  vis.set(40);
  PackedVec8 next;
  gb::bit_vxm_bool_masked<8>(Context{}, at_packed, f, vis, next);

  std::vector<vidx_t> got;
  for (vidx_t v = 0; v < 96; ++v) {
    if (next.get(v)) got.push_back(v);
  }
  EXPECT_EQ(expected, got);
}

TEST(KernelTimer, OpsAccumulateIntoContextSink) {
  KernelTimeSink sink;
  const Context ctx = Context{}.with_timer(&sink);
  const Csr a = coo_to_csr(gen_banded(300, 8, 0.8, 10));
  const auto x = test::random_vector(300, 0.2, 11);
  std::vector<value_t> y;
  gb::ref_mxv<PlusTimesOp>(ctx, a, x, y);
  EXPECT_GT(sink.ms(), 0.0);
  sink.reset();
  EXPECT_EQ(0.0, sink.ms());
  // A null-sink Context accumulates nowhere and costs nothing.
  gb::ref_mxv<PlusTimesOp>(Context{}, a, x, y);
  EXPECT_EQ(0.0, sink.ms());
}

}  // namespace
}  // namespace bitgb
