// Masked BMV tests — the paper's §V masking design (the Boolean pull
// skips a closed tile-row whole, and inside an open row the bitmask is
// AND-ed at the output store; complement masks for "unvisited"
// filtering).
#include "core/bmv.hpp"
#include "core/pack.hpp"
#include "sparse/convert.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace bitgb {
namespace {

class MaskedBmvTest : public ::testing::TestWithParam<int> {};

/// The active-list push as BFS drives it: `active` lists the frontier's
/// non-zero words and `y` arrives all-zero, sized to A's columns.  Also
/// checks that `touched` names each of y's non-zero words exactly once.
template <int Dim>
PackedVecT<Dim> push_from_frontier(const B2srT<Dim>& a,
                                   const PackedVecT<Dim>& frontier,
                                   const PackedVecT<Dim>& visited) {
  std::vector<vidx_t> active;
  for (std::size_t w = 0; w < frontier.words.size(); ++w) {
    if (frontier.words[w] != 0) active.push_back(static_cast<vidx_t>(w));
  }
  PackedVecT<Dim> y(a.ncols);
  std::vector<vidx_t> touched;
  bmv_bin_bin_bin_push_masked(a, frontier, active, visited,
                              /*complement=*/true, y, touched);
  std::vector<vidx_t> nonzero;
  for (std::size_t w = 0; w < y.words.size(); ++w) {
    if (y.words[w] != 0) nonzero.push_back(static_cast<vidx_t>(w));
  }
  std::sort(touched.begin(), touched.end());
  EXPECT_EQ(nonzero, touched);
  return y;
}

TEST_P(MaskedBmvTest, BinBinBinMaskedDropsMaskedRows) {
  const int dim = GetParam();
  const Csr m = coo_to_csr(gen_banded(75, 5, 0.7, 60));
  const auto xb = test::random_vector(m.ncols, 0.4, 61);
  const auto mb = test::random_vector(m.nrows, 0.5, 62);
  std::vector<bool> xbool(static_cast<std::size_t>(m.ncols));
  for (vidx_t i = 0; i < m.ncols; ++i) {
    xbool[static_cast<std::size_t>(i)] = xb[static_cast<std::size_t>(i)] != 0.0f;
  }
  const auto expected_unmasked = test::ref_bool_mxv(m, xbool);

  dispatch_tile_dim(dim, [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(m);
    const auto x = PackedVecT<Dim>::from_bools(xbool);
    const auto mask = PackedVecT<Dim>::from_values(mb);

    for (const bool complement : {false, true}) {
      PackedVecT<Dim> y;
      bmv_bin_bin_bin_masked(a, x, mask, complement, y);
      for (vidx_t r = 0; r < m.nrows; ++r) {
        const bool pass = mask.get(r) != complement;
        const bool want =
            pass && expected_unmasked[static_cast<std::size_t>(r)];
        EXPECT_EQ(want, y.get(r)) << "row " << r << " comp=" << complement;
      }
    }
    return 0;
  });
}

TEST_P(MaskedBmvTest, BinBinBinMaskedClusteredMasksMatchReference) {
  // Late-BFS masks, where the pull skips every tile-row the mask closes.
  // Full tile-row tr takes pattern tr % (Dim + 2): 0 = closed, k in
  // 1..Dim = open only in row k - 1 (bit Dim - 1 included), Dim + 1 =
  // open.  The tail tile-row (n % Dim rows) is closed or open only in
  // its last row.  x holds the even columns: every row has an even
  // neighbour except every third row of the open tile-rows, and the
  // odd-column edges only add tiles to walk.
  const int dim = GetParam();
  dispatch_tile_dim(dim, [&]<int Dim>() {
    const vidx_t full = 2 * (Dim + 2);
    const vidx_t n = full * Dim + Dim / 2 + 1;
    const auto pattern = [&](vidx_t r) { return (r / Dim) % (Dim + 2); };
    std::mt19937 rng(static_cast<std::uint32_t>(Dim));
    std::uniform_int_distribution<vidx_t> odd(0, n / 2 - 1);
    Coo coo{n, n, {}, {}, {}};
    for (vidx_t r = 0; r < n; ++r) {
      if (r / Dim >= full || pattern(r) != Dim + 1 || r % 3 != 0) {
        coo.push(r, 2 * (r / 2));
      }
      for (int e = 0; e < 3; ++e) coo.push(r, 2 * odd(rng) + 1);
    }
    const Csr m = coo_to_csr(coo);
    std::vector<bool> xbool(static_cast<std::size_t>(n));
    for (vidx_t c = 0; c < n; c += 2) xbool[static_cast<std::size_t>(c)] = true;
    const auto unmasked = test::ref_bool_mxv(m, xbool);
    const B2srT<Dim> a = pack_from_csr<Dim>(m);
    const auto x = PackedVecT<Dim>::from_bools(xbool);

    for (const bool tail_open : {false, true}) {
      std::vector<bool> pass(static_cast<std::size_t>(n));
      for (vidx_t r = 0; r < n; ++r) {
        const vidx_t k = pattern(r);
        pass[static_cast<std::size_t>(r)] =
            r / Dim >= full ? tail_open && r == n - 1
                            : k == Dim + 1 || (k > 0 && r % Dim == k - 1);
      }
      std::vector<bool> want(static_cast<std::size_t>(n));
      for (std::size_t r = 0; r < want.size(); ++r) {
        want[r] = pass[r] && unmasked[r];
      }
      const auto want_words = PackedVecT<Dim>::from_bools(want).words;
      for (const bool complement : {false, true}) {
        std::vector<bool> mbits = pass;
        if (complement) mbits.flip();
        const auto mask = PackedVecT<Dim>::from_bools(mbits);
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(::testing::Message()
                       << "tail_open=" << tail_open << " comp=" << complement
                       << " threads=" << threads);
          PackedVecT<Dim> y(n);
          for (vidx_t r = 0; r < n; ++r) y.set(r);  // must be overwritten
          bmv_bin_bin_bin_masked(a, x, mask, complement, y,
                                 Exec{.threads = threads});
          EXPECT_EQ(want_words, y.words);
        }
      }
    }
    return 0;
  });
}

TEST_P(MaskedBmvTest, BinBinFullMaskedKeepsPreviousWhereMasked) {
  const int dim = GetParam();
  const Csr m = coo_to_csr(gen_random(66, 500, 63));
  const auto xb = test::random_vector(m.ncols, 0.4, 64);
  const auto mb = test::random_vector(m.nrows, 0.5, 65);
  std::vector<bool> xbool(static_cast<std::size_t>(m.ncols));
  for (vidx_t i = 0; i < m.ncols; ++i) {
    xbool[static_cast<std::size_t>(i)] = xb[static_cast<std::size_t>(i)] != 0.0f;
  }
  const auto expected = test::ref_count_mxv(m, xbool);

  dispatch_tile_dim(dim, [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(m);
    const auto x = PackedVecT<Dim>::from_bools(xbool);
    const auto mask = PackedVecT<Dim>::from_values(mb);

    const value_t sentinel = -123.0f;
    std::vector<value_t> y(static_cast<std::size_t>(m.nrows), sentinel);
    bmv_bin_bin_full_masked(a, x, mask, /*complement=*/false, y);
    for (vidx_t r = 0; r < m.nrows; ++r) {
      if (mask.get(r)) {
        EXPECT_FLOAT_EQ(expected[static_cast<std::size_t>(r)],
                        y[static_cast<std::size_t>(r)]);
      } else {
        EXPECT_FLOAT_EQ(sentinel, y[static_cast<std::size_t>(r)]);
      }
    }
    return 0;
  });
}

TEST_P(MaskedBmvTest, BinFullFullMaskedMinPlus) {
  const int dim = GetParam();
  const Csr m = coo_to_csr(gen_stripe(80, 3, 0.8, 66));
  const auto xf = test::random_vector(m.ncols, 0.2, 67);
  const auto mb = test::random_vector(m.nrows, 0.5, 68);
  const auto expected = test::ref_semiring_mxv<MinPlusOp>(m, xf);

  dispatch_tile_dim(dim, [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(m);
    const auto mask = PackedVecT<Dim>::from_values(mb);

    const value_t sentinel = -7.0f;
    std::vector<value_t> y(static_cast<std::size_t>(m.nrows), sentinel);
    bmv_bin_full_full_masked<Dim, MinPlusOp>(a, xf, mask,
                                             /*complement=*/true, y);
    for (vidx_t r = 0; r < m.nrows; ++r) {
      if (!mask.get(r)) {  // complement: pass where mask bit clear
        EXPECT_EQ(expected[static_cast<std::size_t>(r)],
                  y[static_cast<std::size_t>(r)]);
      } else {
        EXPECT_FLOAT_EQ(sentinel, y[static_cast<std::size_t>(r)]);
      }
    }
    return 0;
  });
}

TEST_P(MaskedBmvTest, PushEqualsPullOnSymmetricMatrices) {
  // vxm(f, A) push over A == mxv(A^T, f) pull; on a symmetric matrix
  // both kernels take the same operand, so results must be word-equal
  // for every frontier/visited combination.
  const int dim = GetParam();
  const Csr m = symmetrize(coo_to_csr(gen_random(85, 600, 73)));
  const auto fb = test::random_vector(m.nrows, 0.7, 74);
  const auto vb = test::random_vector(m.nrows, 0.5, 75);

  dispatch_tile_dim(dim, [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(m);
    const auto frontier = PackedVecT<Dim>::from_values(fb);
    const auto visited = PackedVecT<Dim>::from_values(vb);

    PackedVecT<Dim> pull;
    bmv_bin_bin_bin_masked(a, frontier, visited, true, pull);
    EXPECT_EQ(pull.words, push_from_frontier(a, frontier, visited).words);
    return 0;
  });
}

TEST_P(MaskedBmvTest, PushOnAsymmetricMatchesReference) {
  // Push vxm on a directed matrix: y_j = OR_{i in frontier} A(i,j),
  // masked.  Check against a scalar reference.
  const int dim = GetParam();
  const Csr m = coo_to_csr(gen_random(77, 500, 76));
  const auto fb = test::random_vector(m.nrows, 0.6, 77);
  const auto vb = test::random_vector(m.ncols, 0.5, 78);

  std::vector<bool> expected(static_cast<std::size_t>(m.ncols), false);
  for (vidx_t i = 0; i < m.nrows; ++i) {
    if (fb[static_cast<std::size_t>(i)] == 0.0f) continue;
    for (const vidx_t j : m.row_cols(i)) {
      if (vb[static_cast<std::size_t>(j)] == 0.0f) {  // unvisited only
        expected[static_cast<std::size_t>(j)] = true;
      }
    }
  }

  dispatch_tile_dim(dim, [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(m);
    const auto frontier = PackedVecT<Dim>::from_values(fb);
    const auto visited = PackedVecT<Dim>::from_values(vb);
    EXPECT_EQ(expected, push_from_frontier(a, frontier, visited).to_bools());
    return 0;
  });
}

TEST_P(MaskedBmvTest, PushWithEmptyFrontierIsEmpty) {
  const int dim = GetParam();
  const Csr m = coo_to_csr(gen_banded(60, 5, 0.8, 79));
  dispatch_tile_dim(dim, [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(m);
    const PackedVecT<Dim> frontier(m.nrows);
    const PackedVecT<Dim> visited(m.ncols);
    EXPECT_FALSE(push_from_frontier(a, frontier, visited).any());
    return 0;
  });
}

TEST_P(MaskedBmvTest, FullMaskEqualsUnmasked) {
  const int dim = GetParam();
  const Csr m = coo_to_csr(gen_hybrid(90, 69));
  const auto xf = test::random_vector(m.ncols, 0.3, 70);

  dispatch_tile_dim(dim, [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(m);
    PackedVecT<Dim> all(m.nrows);
    for (vidx_t i = 0; i < m.nrows; ++i) all.set(i);

    std::vector<value_t> unmasked;
    bmv_bin_full_full<Dim, PlusTimesOp>(a, xf, unmasked);
    std::vector<value_t> masked(static_cast<std::size_t>(m.nrows), 0.0f);
    bmv_bin_full_full_masked<Dim, PlusTimesOp>(a, xf, all, false, masked);
    EXPECT_EQ(unmasked, masked);

    const auto xb = PackedVecT<Dim>::from_values(xf);
    std::vector<value_t> counts;
    bmv_bin_bin_full(a, xb, counts);
    std::vector<value_t> masked_counts(static_cast<std::size_t>(m.nrows), 0.0f);
    bmv_bin_bin_full_masked(a, xb, all, false, masked_counts);
    EXPECT_EQ(counts, masked_counts);
    return 0;
  });
}

TEST_P(MaskedBmvTest, EmptyMaskLeavesOutputUntouched) {
  const int dim = GetParam();
  const Csr m = coo_to_csr(gen_random(40, 300, 71));
  const auto xf = test::random_vector(m.ncols, 0.3, 72);

  dispatch_tile_dim(dim, [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(m);
    const PackedVecT<Dim> none(m.nrows);  // all clear
    std::vector<value_t> y(static_cast<std::size_t>(m.nrows), 5.5f);
    bmv_bin_full_full_masked<Dim, PlusTimesOp>(a, xf, none, false, y);
    for (const value_t v : y) EXPECT_FLOAT_EQ(5.5f, v);
    return 0;
  });
}

TEST_P(MaskedBmvTest, ComplementHalvesPartitionTheUnmaskedResult) {
  // For any mask, the masked result and its complement-masked result
  // partition the unmasked result row set: OR-ing them row-wise must
  // reproduce the unmasked output on every fixture pattern.
  const int dim = GetParam();
  for (const auto& [name, m] : test::small_matrices_cached()) {
    SCOPED_TRACE(name);
    const auto xb = test::random_vector(m.ncols, 0.4, 90);
    const auto mb = test::random_vector(m.nrows, 0.5, 91);
    std::vector<bool> xbool(static_cast<std::size_t>(m.ncols));
    for (vidx_t i = 0; i < m.ncols; ++i) {
      xbool[static_cast<std::size_t>(i)] =
          xb[static_cast<std::size_t>(i)] != 0.0f;
    }
    dispatch_tile_dim(dim, [&]<int Dim>() {
      const B2srT<Dim> a = pack_from_csr<Dim>(m);
      const auto x = PackedVecT<Dim>::from_bools(xbool);
      const auto mask = PackedVecT<Dim>::from_values(mb);
      PackedVecT<Dim> unmasked;
      bmv_bin_bin_bin(a, x, unmasked);
      PackedVecT<Dim> kept;
      bmv_bin_bin_bin_masked(a, x, mask, false, kept);
      PackedVecT<Dim> dropped;
      bmv_bin_bin_bin_masked(a, x, mask, true, dropped);
      for (vidx_t r = 0; r < m.nrows; ++r) {
        EXPECT_EQ(unmasked.get(r), kept.get(r) || dropped.get(r))
            << "row " << r << " dim=" << Dim;
      }
      return 0;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(AllDims, MaskedBmvTest,
                         ::testing::ValuesIn({4, 8, 16, 32}),
                         [](const auto& info) {
                           return "dim" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace bitgb
