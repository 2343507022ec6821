// BMM kernel tests — paper Table III: the counting-sum product, the
// masked dot-product sum (triangle counting's workhorse), and the
// bit-SpGEMM extension.
#include "core/bit_spgemm.hpp"
#include "core/bmm.hpp"
#include "core/pack.hpp"
#include "baseline/csrgemm.hpp"
#include "sparse/convert.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace bitgb {
namespace {

class BmmTest : public ::testing::TestWithParam<int> {};

TEST_P(BmmTest, SumMatchesDenseProductSum) {
  const int dim = GetParam();
  for (const auto& [name, m] : test::small_matrices_cached()) {
    const std::int64_t expected = test::ref_product_sum(m, m);
    dispatch_tile_dim(dim, [&]<int Dim>() {
      const B2srT<Dim> a = pack_from_csr<Dim>(m);
      EXPECT_EQ(expected, bmm_bin_bin_sum(a, a)) << name << " dim=" << Dim;
      return 0;
    });
  }
}

TEST_P(BmmTest, SumOfRectangularProduct) {
  const int dim = GetParam();
  // A: 40x60, B: 60x52 — distinct inner/outer sizes cross the tile
  // boundary logic.
  Coo ac{40, 60, {}, {}, {}};
  Coo bc{60, 52, {}, {}, {}};
  std::mt19937_64 rng(80);
  for (int i = 0; i < 300; ++i) {
    ac.push(static_cast<vidx_t>(rng() % 40), static_cast<vidx_t>(rng() % 60));
    bc.push(static_cast<vidx_t>(rng() % 60), static_cast<vidx_t>(rng() % 52));
  }
  const Csr a = coo_to_csr(ac);
  const Csr b = coo_to_csr(bc);
  const std::int64_t expected = test::ref_product_sum(a, b);
  dispatch_tile_dim(dim, [&]<int Dim>() {
    EXPECT_EQ(expected,
              bmm_bin_bin_sum(pack_from_csr<Dim>(a), pack_from_csr<Dim>(b)));
    return 0;
  });
}

TEST_P(BmmTest, MaskedSumMatchesReference) {
  const int dim = GetParam();
  for (const auto& [name, m] : test::small_matrices_cached()) {
    const Csr l = lower_triangle(m);
    const std::int64_t expected = test::ref_abt_masked_sum(l, l, l);
    dispatch_tile_dim(dim, [&]<int Dim>() {
      const B2srT<Dim> lb = pack_from_csr<Dim>(l);
      EXPECT_EQ(expected, bmm_bin_bin_sum_masked(lb, lb, lb))
          << name << " dim=" << Dim;
      return 0;
    });
  }
}

TEST_P(BmmTest, MaskedSumWithDistinctOperands) {
  const int dim = GetParam();
  const Csr a = coo_to_csr(gen_random(45, 350, 81));
  const Csr b = coo_to_csr(gen_random(45, 350, 82));
  const Csr mask = coo_to_csr(gen_random(45, 200, 83));
  const std::int64_t expected = test::ref_abt_masked_sum(a, b, mask);
  dispatch_tile_dim(dim, [&]<int Dim>() {
    EXPECT_EQ(expected, bmm_bin_bin_sum_masked(pack_from_csr<Dim>(a),
                                               pack_from_csr<Dim>(b),
                                               pack_from_csr<Dim>(mask)));
    return 0;
  });
}

// Masked-sum cases below run at 1 thread and at 3 and 4 workers, so
// the tile-rows split into contiguous ranges with dense rows of their
// own; the sum is an integer and must not depend on the split.
constexpr int kMaskedThreads[] = {1, 3, 4};

template <int Dim>
void expect_masked_sum(const Csr& a, const Csr& b, const Csr& mask,
                       const std::string& what) {
  const std::int64_t expected = test::ref_abt_masked_sum(a, b, mask);
  const B2srT<Dim> ab = pack_from_csr<Dim>(a);
  const B2srT<Dim> bb = pack_from_csr<Dim>(b);
  const B2srT<Dim> mb = pack_from_csr<Dim>(mask);
  for (const int threads : kMaskedThreads) {
    EXPECT_EQ(expected,
              bmm_bin_bin_sum_masked(ab, bb, mb, Exec{.threads = threads}))
        << what << " dim=" << Dim << " threads=" << threads;
  }
}

// Triangle counting's operands on a power-law graph: gen_rmat(12)'s
// 4096 vertices spread in reverse over 4099 (v -> 4098 - v - v/1024),
// so the hubs sit in the last tile-row, which is partial at every dim;
// L, L, L is the lower triangle of the symmetrized graph.
TEST_P(BmmTest, MaskedSumOfPowerLawLowerTriangle) {
  const int dim = GetParam();
  const Coo r = gen_rmat(12, 1 << 15, 88);
  Coo sym{4099, 4099, {}, {}, {}};
  const auto fold = [](vidx_t v) { return 4098 - v - v / 1024; };
  for (std::size_t e = 0; e < r.row.size(); ++e) {
    sym.push(fold(r.row[e]), fold(r.col[e]));
    sym.push(fold(r.col[e]), fold(r.row[e]));
  }
  const Csr l = lower_triangle(coo_to_csr(sym));
  ASSERT_GT(l.row_cols(4098).size(), 0u);  // the tail tile-row is not empty
  ASSERT_GT(test::ref_abt_masked_sum(l, l, l), 0);
  dispatch_tile_dim(dim, [&]<int Dim>() {
    expect_masked_sum<Dim>(l, l, l, "rmat12 folded onto 4099");
    return 0;
  });
}

// Consecutive tile-rows of A use disjoint tile columns (even tile
// columns in even tile-rows, odd in odd), so a dense row left holding
// the previous tile-row's tiles changes the sum.
TEST_P(BmmTest, MaskedSumClearsTheDenseRowBetweenTileRows) {
  const int dim = GetParam();
  dispatch_tile_dim(dim, [&]<int Dim>() {
    std::mt19937_64 rng(89);
    const vidx_t n = 203;
    const vidx_t inner = 190;
    const vidx_t nb = 170;
    Coo ac{n, inner, {}, {}, {}};
    Coo leak{n, inner, {}, {}, {}};  // A plus the previous tile-row's rows
    for (vidx_t i = 0; i < n; ++i) {
      for (int k = 0; k < 12; ++k) {
        const auto c = static_cast<vidx_t>(rng() % inner);
        if ((c / Dim) % 2 != (i / Dim) % 2) continue;
        ac.push(i, c);
        leak.push(i, c);
        if (i + Dim < n) leak.push(i + Dim, c);
      }
    }
    Coo bc{nb, inner, {}, {}, {}};
    for (int e = 0; e < 6000; ++e) {
      bc.push(static_cast<vidx_t>(rng() % nb),
              static_cast<vidx_t>(rng() % inner));
    }
    Coo mc{n, nb, {}, {}, {}};
    for (int e = 0; e < 5000; ++e) {
      mc.push(static_cast<vidx_t>(rng() % n), static_cast<vidx_t>(rng() % nb));
    }
    const Csr a = coo_to_csr(ac);
    const Csr b = coo_to_csr(bc);
    const Csr mask = coo_to_csr(mc);
    ASSERT_NE(test::ref_abt_masked_sum(a, b, mask),
              test::ref_abt_masked_sum(coo_to_csr(leak), b, mask));
    expect_masked_sum<Dim>(a, b, mask, "disjoint tile columns per tile-row");
  });
}

// Mask tiles of three shapes, in runs of Dim tiles: one set row at
// position idx % Dim (a full row or a single bit), a full tile, or
// none.  Every fifth B tile-row is empty, so mask tiles of both kinds
// meet empty B tile-rows.  A is sparse, so many of its tiles are
// present with word 0 zero.
TEST_P(BmmTest, MaskedSumOverSingleRowFullAndEmptyRowMaskTiles) {
  const int dim = GetParam();
  dispatch_tile_dim(dim, [&]<int Dim>() {
    using word_t = typename TileTraits<Dim>::word_t;
    std::mt19937_64 rng(90);
    const vidx_t n = 317;
    const vidx_t inner = 250;
    const vidx_t nb = 290;
    std::bernoulli_distribution a_on(0.05);
    std::bernoulli_distribution b_on(0.3);
    Coo ac{n, inner, {}, {}, {}};
    for (vidx_t i = 0; i < n; ++i) {
      for (vidx_t c = 0; c < inner; ++c) {
        if (a_on(rng)) ac.push(i, c);
      }
    }
    Coo bc{nb, inner, {}, {}, {}};
    for (vidx_t j = 0; j < nb; ++j) {
      if ((j / Dim) % 5 == 3) continue;
      for (vidx_t c = 0; c < inner; ++c) {
        if (b_on(rng)) bc.push(j, c);
      }
    }
    const vidx_t ntr = (n + Dim - 1) / Dim;
    const vidx_t ntc = (nb + Dim - 1) / Dim;
    Coo mc{n, nb, {}, {}, {}};
    std::vector<bool> single_row_at(Dim, false);
    for (vidx_t idx = 0; idx < ntr * ntc; ++idx) {
      const vidx_t tr = idx / ntc;
      const vidx_t j = idx % ntc;
      const auto cell = [&](vidx_t r, vidx_t c) {
        const vidx_t i = tr * Dim + r;
        const vidx_t col = j * Dim + c;
        if (i < n && col < nb) mc.push(i, col);
      };
      const int kind = static_cast<int>((idx / Dim) % 3);
      if (kind == 0) {
        const vidx_t r = idx % Dim;
        if (tr * Dim + r >= n) continue;
        single_row_at[static_cast<std::size_t>(r)] = true;
        if (idx % 2 == 0) {
          for (vidx_t c = 0; c < Dim; ++c) cell(r, c);
        } else {
          cell(r, (idx * 7) % Dim);
        }
      } else if (kind == 1) {
        for (vidx_t r = 0; r < Dim; ++r) {
          for (vidx_t c = 0; c < Dim; ++c) cell(r, c);
        }
      }
    }
    for (int r = 0; r < Dim; ++r) {
      ASSERT_TRUE(single_row_at[static_cast<std::size_t>(r)]) << "row " << r;
    }
    const Csr a = coo_to_csr(ac);
    const B2srT<Dim> ab = pack_from_csr<Dim>(a);
    bool word0_zero = false;
    for (vidx_t t = 0; t < ab.nnz_tiles(); ++t) {
      word0_zero = word0_zero || ab.tile(t)[0] == word_t{0};
    }
    ASSERT_TRUE(word0_zero);
    expect_masked_sum<Dim>(a, coo_to_csr(bc), coo_to_csr(mc),
                           "single-row, full and empty-row mask tiles");
  });
}

TEST_P(BmmTest, EmptyOperandsGiveZero) {
  const int dim = GetParam();
  const Csr empty = coo_to_csr(Coo{32, 32, {}, {}, {}});
  const Csr some = coo_to_csr(gen_random(32, 100, 84));
  dispatch_tile_dim(dim, [&]<int Dim>() {
    const auto e = pack_from_csr<Dim>(empty);
    const auto s = pack_from_csr<Dim>(some);
    EXPECT_EQ(0, bmm_bin_bin_sum(e, s));
    EXPECT_EQ(0, bmm_bin_bin_sum(s, e));
    EXPECT_EQ(0, bmm_bin_bin_sum_masked(s, s, e));
    return 0;
  });
}

INSTANTIATE_TEST_SUITE_P(AllDims, BmmTest, ::testing::ValuesIn({4, 8, 16, 32}),
                         [](const auto& info) {
                           return "dim" + std::to_string(info.param);
                         });

// --- bit SpGEMM extension ---

class BitSpgemmTest : public ::testing::TestWithParam<int> {};

TEST_P(BitSpgemmTest, MatchesBooleanizedFloatSpgemm) {
  const int dim = GetParam();
  for (const auto& [name, m] : test::small_matrices_cached()) {
    // Boolean product pattern == pattern of the float product.
    const Csr ref = baseline::csrgemm(m, m);
    dispatch_tile_dim(dim, [&]<int Dim>() {
      const B2srT<Dim> a = pack_from_csr<Dim>(m);
      const Csr got = unpack_to_csr(bit_spgemm(a, a));
      EXPECT_EQ(ref.rowptr, got.rowptr) << name << " dim=" << Dim;
      EXPECT_EQ(ref.colind, got.colind) << name << " dim=" << Dim;
      return 0;
    });
  }
}

TEST_P(BitSpgemmTest, ProducesValidFormat) {
  const int dim = GetParam();
  const Csr m = coo_to_csr(gen_stripe(100, 4, 0.7, 85));
  dispatch_tile_dim(dim, [&]<int Dim>() {
    const B2srT<Dim> c = bit_spgemm(pack_from_csr<Dim>(m), pack_from_csr<Dim>(m));
    EXPECT_TRUE(c.validate());
    return 0;
  });
}

TEST_P(BitSpgemmTest, RectangularChainAssociativityPattern) {
  const int dim = GetParam();
  // (A*B) computed bitwise equals pattern of float product for
  // rectangular operands.
  Coo ac{30, 50, {}, {}, {}};
  Coo bc{50, 20, {}, {}, {}};
  std::mt19937_64 rng(86);
  for (int i = 0; i < 250; ++i) {
    ac.push(static_cast<vidx_t>(rng() % 30), static_cast<vidx_t>(rng() % 50));
    bc.push(static_cast<vidx_t>(rng() % 50), static_cast<vidx_t>(rng() % 20));
  }
  const Csr a = coo_to_csr(ac);
  const Csr b = coo_to_csr(bc);
  const Csr ref = baseline::csrgemm(a, b);
  dispatch_tile_dim(dim, [&]<int Dim>() {
    const Csr got =
        unpack_to_csr(bit_spgemm(pack_from_csr<Dim>(a), pack_from_csr<Dim>(b)));
    EXPECT_EQ(ref.rowptr, got.rowptr);
    EXPECT_EQ(ref.colind, got.colind);
    return 0;
  });
}

TEST(BitSpgemmAny, RejectsMixedDims) {
  const Csr m = coo_to_csr(gen_random(20, 60, 87));
  const B2srAny a4 = pack_any(m, 4);
  const B2srAny a8 = pack_any(m, 8);
  EXPECT_THROW(bit_spgemm_any(a4, a8), std::invalid_argument);
  // Same dims work.
  const B2srAny c = bit_spgemm_any(a4, a4);
  EXPECT_EQ(4, c.tile_dim());
}

INSTANTIATE_TEST_SUITE_P(AllDims, BitSpgemmTest,
                         ::testing::ValuesIn({4, 8, 16, 32}),
                         [](const auto& info) {
                           return "dim" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace bitgb
