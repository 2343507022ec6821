// Baseline (cuSPARSE-substitute) tests: float CSR SpMV and SpGEMM
// against dense references.
#include "baseline/csrgemm.hpp"
#include "baseline/csrmv.hpp"
#include "sparse/convert.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

namespace bitgb {
namespace {

std::vector<value_t> dense_mv(const Csr& a, const std::vector<value_t>& x) {
  const auto d = csr_to_dense(a);
  std::vector<value_t> y(static_cast<std::size_t>(a.nrows), 0.0f);
  for (vidx_t r = 0; r < a.nrows; ++r) {
    for (vidx_t c = 0; c < a.ncols; ++c) {
      y[static_cast<std::size_t>(r)] +=
          d[static_cast<std::size_t>(r) * a.ncols + c] *
          x[static_cast<std::size_t>(c)];
    }
  }
  return y;
}

TEST(Csrmv, MatchesDenseOnBinaryMatrices) {
  for (const auto& [name, m] : test::small_matrices_cached()) {
    SCOPED_TRACE(name);
    const auto x = test::random_vector(m.ncols, 0.3, 200);
    std::vector<value_t> y;
    baseline::csrmv(m, x, y);
    test::expect_vectors_near(dense_mv(m, x), y, 1e-3);
  }
}

TEST(Csrmv, UsesWeightsWhenPresent) {
  Coo a{3, 3, {}, {}, {}};
  a.push(0, 1, 2.0f);
  a.push(1, 2, -3.0f);
  const Csr c = coo_to_csr(a);
  std::vector<value_t> y;
  baseline::csrmv(c, {1.0f, 10.0f, 100.0f}, y);
  EXPECT_FLOAT_EQ(20.0f, y[0]);
  EXPECT_FLOAT_EQ(-300.0f, y[1]);
  EXPECT_FLOAT_EQ(0.0f, y[2]);
}

TEST(Csrgemm, MatchesDenseProduct) {
  const Csr a = coo_to_csr(gen_random(30, 200, 203));
  const Csr b = coo_to_csr(gen_random(30, 200, 204));
  const Csr c = baseline::csrgemm(a, b);
  EXPECT_TRUE(c.validate());

  const auto da = csr_to_dense(a);
  const auto db = csr_to_dense(b);
  const auto dc = csr_to_dense(c);
  for (vidx_t i = 0; i < 30; ++i) {
    for (vidx_t j = 0; j < 30; ++j) {
      value_t acc = 0.0f;
      for (vidx_t k = 0; k < 30; ++k) {
        acc += da[static_cast<std::size_t>(i) * 30 + k] *
               db[static_cast<std::size_t>(k) * 30 + j];
      }
      EXPECT_NEAR(acc, dc[static_cast<std::size_t>(i) * 30 + j], 1e-3)
          << i << "," << j;
    }
  }
}

TEST(Csrgemm, RectangularShapes) {
  Coo ac{10, 20, {}, {}, {}};
  Coo bc{20, 15, {}, {}, {}};
  std::mt19937_64 rng(205);
  for (int i = 0; i < 60; ++i) {
    ac.push(static_cast<vidx_t>(rng() % 10), static_cast<vidx_t>(rng() % 20));
    bc.push(static_cast<vidx_t>(rng() % 20), static_cast<vidx_t>(rng() % 15));
  }
  const Csr c = baseline::csrgemm(coo_to_csr(ac), coo_to_csr(bc));
  EXPECT_EQ(10, c.nrows);
  EXPECT_EQ(15, c.ncols);
  EXPECT_TRUE(c.validate());
}

TEST(Csrgemm, EmptyOperands) {
  const Csr empty = coo_to_csr(Coo{16, 16, {}, {}, {}});
  const Csr some = coo_to_csr(gen_random(16, 50, 206));
  EXPECT_EQ(0, baseline::csrgemm(empty, some).nnz());
  EXPECT_EQ(0, baseline::csrgemm(some, empty).nnz());
}

TEST(CsrgemmMaskedSum, MatchesReferenceTripleProduct) {
  const Csr a = coo_to_csr(gen_random(25, 150, 207));
  const Csr b = coo_to_csr(gen_random(25, 150, 208));
  const Csr mask = coo_to_csr(gen_random(25, 100, 209));
  EXPECT_DOUBLE_EQ(
      static_cast<double>(test::ref_abt_masked_sum(a, b, mask)),
      baseline::csrgemm_masked_sum(a, b, mask));
}

TEST(CsrgemmMaskedSum, LowerTriangleTriangleIdentity) {
  // sum((L*L^T) .* L) counts triangles once each: K4 has 4 triangles.
  Coo k4{4, 4, {}, {}, {}};
  for (vidx_t i = 0; i < 4; ++i) {
    for (vidx_t j = 0; j < 4; ++j) {
      if (i != j) k4.push(i, j);
    }
  }
  const Csr l = lower_triangle(coo_to_csr(k4));
  EXPECT_DOUBLE_EQ(4.0, baseline::csrgemm_masked_sum(l, l, l));
}

}  // namespace
}  // namespace bitgb
