// Unit tests for the sparse substrate: COO, CSR, conversions and the
// structural operations (transpose, triangles, symmetrize, ...).
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

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
