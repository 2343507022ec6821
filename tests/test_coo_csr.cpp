// Unit tests for the sparse substrate: COO, CSR, conversions and the
// structural operations (transpose, triangles, symmetrize, ...).
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace bitgb {
namespace {

TEST(Coo, SortAndDedupBinaryKeepsSingleEntry) {
  Coo a{4, 4, {}, {}, {}};
  a.push(2, 1);
  a.push(0, 3);
  a.push(2, 1);  // duplicate
  a.push(0, 0);
  a.sort_and_dedup();
  ASSERT_EQ(3, a.nnz());
  EXPECT_EQ(0, a.row[0]);
  EXPECT_EQ(0, a.col[0]);
  EXPECT_EQ(0, a.row[1]);
  EXPECT_EQ(3, a.col[1]);
  EXPECT_EQ(2, a.row[2]);
  EXPECT_EQ(1, a.col[2]);
}

TEST(Coo, SortAndDedupWeightedSumsDuplicates) {
  Coo a{4, 4, {}, {}, {}};
  a.push(1, 2, 1.5f);
  a.push(1, 2, 2.5f);
  a.push(0, 0, 1.0f);
  a.sort_and_dedup();
  ASSERT_EQ(2, a.nnz());
  EXPECT_FLOAT_EQ(1.0f, a.val[0]);
  EXPECT_FLOAT_EQ(4.0f, a.val[1]);  // 1.5 + 2.5 merged
}

TEST(Coo, ValidateCatchesOutOfRange) {
  Coo good{4, 4, {0}, {3}, {}};
  EXPECT_TRUE(good.validate());
  Coo bad_row{4, 4, {4}, {0}, {}};
  EXPECT_FALSE(bad_row.validate());
  Coo bad_col{4, 4, {0}, {-1}, {}};
  EXPECT_FALSE(bad_col.validate());
  Coo bad_val{4, 4, {0, 1}, {0, 1}, {1.0f}};  // val size mismatch
  EXPECT_FALSE(bad_val.validate());
}

TEST(Coo, PatternAndUnitValueViews) {
  Coo a{3, 3, {0, 1}, {1, 2}, {5.0f, 6.0f}};
  const Coo p = pattern_of(a);
  EXPECT_TRUE(p.is_binary());
  EXPECT_EQ(2, p.nnz());
  const Coo u = with_unit_values(p);
  ASSERT_EQ(2u, u.val.size());
  EXPECT_FLOAT_EQ(1.0f, u.val[0]);
  EXPECT_FLOAT_EQ(1.0f, u.val[1]);
}

TEST(CooCsr, RoundTripPreservesPattern) {
  const Coo a = gen_random(50, 400, 42);
  const Csr c = coo_to_csr(a);
  EXPECT_TRUE(c.validate());
  const Coo back = csr_to_coo(c);
  Coo sorted = a;
  sorted.sort_and_dedup();
  EXPECT_EQ(sorted.row, back.row);
  EXPECT_EQ(sorted.col, back.col);
}

TEST(CooCsr, UnsortedInputProducesSortedCsr) {
  Coo a{5, 5, {}, {}, {}};
  a.push(4, 1);
  a.push(0, 4);
  a.push(4, 0);
  a.push(0, 2);
  const Csr c = coo_to_csr(a);
  EXPECT_TRUE(c.validate());  // validate() checks per-row sortedness
  const auto r0 = c.row_cols(0);
  ASSERT_EQ(2u, r0.size());
  EXPECT_EQ(2, r0[0]);
  EXPECT_EQ(4, r0[1]);
}

TEST(Csr, TransposeMatchesDenseTranspose) {
  const Csr c = coo_to_csr(gen_random(37, 250, 8));
  const Csr t = transpose(c);
  EXPECT_TRUE(t.validate());
  const auto d = csr_to_dense(c);
  const auto dt = csr_to_dense(t);
  for (vidx_t r = 0; r < c.nrows; ++r) {
    for (vidx_t col = 0; col < c.ncols; ++col) {
      EXPECT_EQ(d[static_cast<std::size_t>(r) * 37 + col],
                dt[static_cast<std::size_t>(col) * 37 + r]);
    }
  }
}

TEST(Csr, DoubleTransposeIsIdentity) {
  for (const auto& [name, m] : test::small_matrices_cached()) {
    const Csr tt = transpose(transpose(m));
    EXPECT_EQ(m.rowptr, tt.rowptr) << name;
    EXPECT_EQ(m.colind, tt.colind) << name;
  }
}

TEST(Csr, SymmetrizeIsIdempotentAcrossPatterns) {
  for (const auto& [name, m] : test::small_matrices_cached()) {
    SCOPED_TRACE(name);
    const Csr s = symmetrize(m);
    EXPECT_TRUE(is_symmetric(s));
    const Csr ss = symmetrize(s);
    EXPECT_EQ(s.rowptr, ss.rowptr);
    EXPECT_EQ(s.colind, ss.colind);
  }
}

TEST(Csr, TransposePreservesWeights) {
  Coo a{3, 3, {}, {}, {}};
  a.push(0, 1, 2.0f);
  a.push(1, 2, 3.0f);
  a.push(2, 0, 4.0f);
  const Csr t = transpose(coo_to_csr(a));
  // t(1,0) == 2, t(2,1) == 3, t(0,2) == 4.
  EXPECT_FLOAT_EQ(4.0f, t.row_vals(0)[0]);
  EXPECT_FLOAT_EQ(2.0f, t.row_vals(1)[0]);
  EXPECT_FLOAT_EQ(3.0f, t.row_vals(2)[0]);
}

TEST(Csr, LowerTriangleStrict) {
  const Csr c = coo_to_csr(gen_random(30, 200, 9));
  const Csr l = lower_triangle(c);
  EXPECT_TRUE(l.validate());
  for (vidx_t r = 0; r < l.nrows; ++r) {
    for (const vidx_t col : l.row_cols(r)) {
      EXPECT_LT(col, r);
    }
  }
}

TEST(Csr, DegreeOrderedLowerIsTheRelabeledLowerTriangle) {
  // Oracle: rank the vertices with a stable sort on descending degree,
  // relabel every entry through a COO, and take its lower_triangle.
  // The inputs carry degree ties, isolated vertices and self loops.
  const Csr empty{0, 0, {0}, {}, {}};
  for (const Csr& a : {symmetrize(coo_to_csr(gen_rmat(8, 1500, 3))),
                       symmetrize(coo_to_csr(gen_random(40, 150, 11))),
                       symmetrize(coo_to_csr(gen_road(6, 5, 0.1, 2))),
                       empty}) {
    const vidx_t n = a.nrows;
    const auto deg = out_degrees(a);
    std::vector<vidx_t> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), vidx_t{0});
    std::stable_sort(order.begin(), order.end(), [&](vidx_t x, vidx_t y) {
      return deg[static_cast<std::size_t>(x)] >
             deg[static_cast<std::size_t>(y)];
    });
    std::vector<vidx_t> rank(static_cast<std::size_t>(n));
    for (vidx_t r = 0; r < n; ++r) {
      rank[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])] = r;
    }
    Coo relabeled{n, n, {}, {}, {}};
    for (vidx_t u = 0; u < n; ++u) {
      for (const vidx_t v : a.row_cols(u)) {
        relabeled.push(rank[static_cast<std::size_t>(u)],
                       rank[static_cast<std::size_t>(v)]);
      }
    }
    const Csr want = lower_triangle(coo_to_csr(relabeled));
    const Csr got = degree_ordered_lower(a);
    SCOPED_TRACE(::testing::Message() << "n " << n << ", nnz " << a.nnz());
    EXPECT_TRUE(got.validate());
    EXPECT_EQ(want.rowptr, got.rowptr);
    EXPECT_EQ(want.colind, got.colind);
    EXPECT_TRUE(got.val.empty());
  }
}

TEST(Csr, DegreesSkewedWhenTheMeanPassesFourTimesTheMedian) {
  // K9 plus six disjoint edges: 21 vertices, median degree 1 (twelve
  // vertices of degree 1, nine of degree 8) and mean 84 / 21 = 4
  // exactly, which is not above 4 x the median.
  Coo g{21, 21, {}, {}, {}};
  const auto edge = [&](vidx_t u, vidx_t v) {
    g.push(u, v);
    g.push(v, u);
  };
  for (vidx_t u = 0; u < 9; ++u) {
    for (vidx_t v = u + 1; v < 9; ++v) edge(u, v);
  }
  for (vidx_t u = 9; u < 21; u += 2) edge(u, u + 1);
  EXPECT_FALSE(degrees_skewed(coo_to_csr(g)));
  // One more edge, from the clique to a matched vertex: nnz 86 > 84
  // with the median still 1.
  edge(0, 9);
  EXPECT_TRUE(degrees_skewed(coo_to_csr(g)));
  // Even degrees are not skewed.  K5 plus isolated vertices: six of 11
  // isolated put the median at 0, so any edge is skewed; five of 10
  // put the upper median at 4 (the lower one is 0), and its 20
  // entries are not above 4 x 4 x 10.
  EXPECT_FALSE(
      degrees_skewed(symmetrize(coo_to_csr(gen_road(16, 16, 0.0, 1)))));
  for (const vidx_t n : {11, 10}) {
    Coo k5{n, n, {}, {}, {}};
    for (vidx_t u = 0; u < 5; ++u) {
      for (vidx_t v = 0; v < 5; ++v) {
        if (u != v) k5.push(u, v);
      }
    }
    EXPECT_EQ(n == 11, degrees_skewed(coo_to_csr(k5))) << n << " vertices";
  }
  EXPECT_FALSE(degrees_skewed(Csr{0, 0, {0}, {}, {}}));
}

TEST(Csr, SymmetrizeProducesSymmetricUnion) {
  const Csr c = coo_to_csr(gen_random(25, 120, 10));
  const Csr s = symmetrize(c);
  EXPECT_TRUE(s.validate());
  EXPECT_TRUE(is_symmetric(s));
  // Every original edge survives.
  for (vidx_t r = 0; r < c.nrows; ++r) {
    for (const vidx_t col : c.row_cols(r)) {
      const auto row = s.row_cols(r);
      EXPECT_TRUE(std::binary_search(row.begin(), row.end(), col))
          << r << "," << col;
    }
  }
}

TEST(Csr, StripDiagonalRemovesExactlyDiagonal) {
  Coo a{4, 4, {}, {}, {}};
  a.push(0, 0);
  a.push(0, 1);
  a.push(2, 2);
  a.push(3, 1);
  const Csr d = strip_diagonal(coo_to_csr(a));
  EXPECT_EQ(2, d.nnz());
  for (vidx_t r = 0; r < d.nrows; ++r) {
    for (const vidx_t col : d.row_cols(r)) EXPECT_NE(r, col);
  }
}

TEST(Csr, OutDegrees) {
  const Csr c = coo_to_csr(gen_banded(20, 2, 1.0, 0));
  const auto deg = out_degrees(c);
  for (vidx_t r = 0; r < c.nrows; ++r) {
    EXPECT_EQ(static_cast<vidx_t>(c.row_cols(r).size()),
              deg[static_cast<std::size_t>(r)]);
  }
}

TEST(Csr, DensityAndStorage) {
  const Csr c = coo_to_csr(gen_random(100, 500, 21));
  EXPECT_NEAR(500.0 / (100.0 * 100.0), c.density(), 1e-12);
  // (nrows+1 + nnz) * 4 + nnz * 4 bytes.
  EXPECT_EQ((101u + 500u) * 4u + 500u * 4u, c.storage_bytes());
}

TEST(Csr, ValidateCatchesBrokenRowptr) {
  Csr c = coo_to_csr(gen_random(10, 30, 22));
  c.rowptr[3] = c.rowptr[5];  // may break monotonicity/sortedness bounds
  c.rowptr[5] = 1;
  EXPECT_FALSE(c.validate());
}

TEST(Csr, ValidateRejectsARowptrThatOvershootsNnz) {
  // Row 0 claims 100 entries of a 1-entry colind before row 1 falls
  // back: validate must stop at the row bound, not read past colind.
  Csr c;
  c.nrows = 2;
  c.ncols = 2;
  c.rowptr = {0, 100, 1};
  c.colind = {0};
  EXPECT_FALSE(c.validate());
}

TEST(Csr, IsSymmetricDetectsAsymmetry) {
  Coo a{3, 3, {}, {}, {}};
  a.push(0, 1);
  EXPECT_FALSE(is_symmetric(coo_to_csr(a)));
  a.push(1, 0);
  EXPECT_TRUE(is_symmetric(coo_to_csr(a)));
}

}  // namespace
}  // namespace bitgb
