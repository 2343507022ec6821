// Randomized property tests: format and kernel invariants checked over
// many random matrices (seed-parameterized, deterministic).  These
// complement the targeted unit tests with breadth — every invariant
// here is one the rest of the library silently relies on.
#include "baseline/csrgemm.hpp"
#include "baseline/csrmv.hpp"
#include "core/bit_spgemm.hpp"
#include "core/bmm.hpp"
#include "core/bmv.hpp"
#include "core/pack.hpp"
#include "core/sampling.hpp"
#include "core/stats.hpp"
#include "sparse/convert.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace bitgb {
namespace {

// One random matrix per (seed); shapes and densities vary with it too.
Csr random_matrix(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const vidx_t n = 16 + static_cast<vidx_t>(rng() % 150);
  const double density = std::pow(10.0, -3.0 + 2.5 * (rng() % 1000) / 1000.0);
  const auto nnz = static_cast<eidx_t>(
      density * static_cast<double>(n) * static_cast<double>(n));
  switch (rng() % 4) {
    case 0: return coo_to_csr(gen_random(n, nnz, seed));
    case 1: return coo_to_csr(gen_banded(n, 1 + static_cast<vidx_t>(rng() % 9),
                                         0.3 + 0.6 * (rng() % 100) / 100.0,
                                         seed));
    case 2: return coo_to_csr(gen_stripe(n, 1 + static_cast<int>(rng() % 4),
                                         0.5, seed));
    default: return coo_to_csr(gen_hybrid(n, seed));
  }
}

class PropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PropertyTest, PackUnpackIsIdentityForAllDims) {
  const Csr m = random_matrix(static_cast<std::uint64_t>(GetParam()));
  for (const int dim : kTileDims) {
    const B2srAny b = pack_any(m, dim);
    EXPECT_TRUE(b.visit([](const auto& t) { return t.validate(); }));
    const Csr back = unpack_any(b);
    EXPECT_EQ(m.rowptr, back.rowptr) << "dim " << dim;
    EXPECT_EQ(m.colind, back.colind) << "dim " << dim;
  }
}

TEST_P(PropertyTest, NnzIsFormatInvariant) {
  const Csr m = random_matrix(static_cast<std::uint64_t>(GetParam()) + 1000);
  for (const int dim : kTileDims) {
    EXPECT_EQ(m.nnz(), pack_any(m, dim).nnz()) << "dim " << dim;
  }
}

TEST_P(PropertyTest, TransposeCommutesWithPacking) {
  const Csr m = random_matrix(static_cast<std::uint64_t>(GetParam()) + 2000);
  for (const int dim : {8, 32}) {
    const Csr via_csr = unpack_any(pack_any(transpose(m), dim));
    const Csr via_b2sr = unpack_any(transpose_any(pack_any(m, dim)));
    EXPECT_EQ(via_csr.colind, via_b2sr.colind) << "dim " << dim;
  }
}

TEST_P(PropertyTest, BmvAgreesWithCsrmvOnBinaryMatrices) {
  const Csr m = random_matrix(static_cast<std::uint64_t>(GetParam()) + 3000);
  const auto x = test::random_vector(m.ncols, 0.4, 1);
  std::vector<value_t> y_ref;
  baseline::csrmv(m, x, y_ref);
  for (const int dim : kTileDims) {
    dispatch_tile_dim(dim, [&]<int Dim>() {
      std::vector<value_t> y;
      bmv_bin_full_full<Dim, PlusTimesOp>(pack_from_csr<Dim>(m), x, y);
      test::expect_vectors_near(y_ref, y, 1e-2);
      return 0;
    });
  }
}

TEST_P(PropertyTest, BooleanProductPatternEqualsCountingSupport) {
  // bit_spgemm (Boolean) must have exactly the support of the counting
  // product, and bmm_bin_bin_sum must equal the counting product's
  // total mass.
  const Csr m = random_matrix(static_cast<std::uint64_t>(GetParam()) + 4000);
  const Csr ref = baseline::csrgemm(m, m);
  double mass = 0.0;
  for (const value_t v : ref.val) mass += v;
  dispatch_tile_dim(8, [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(m);
    EXPECT_EQ(static_cast<std::int64_t>(std::llround(mass)),
              bmm_bin_bin_sum(a, a));
    const Csr boolean = unpack_to_csr(bit_spgemm(a, a));
    EXPECT_EQ(ref.rowptr, boolean.rowptr);
    EXPECT_EQ(ref.colind, boolean.colind);
    return 0;
  });
}

TEST_P(PropertyTest, CompressionBoundsHold) {
  // The format can never beat the information bound of its tiles and
  // the sampler's full-sample estimate must match the packer exactly.
  const Csr m = random_matrix(static_cast<std::uint64_t>(GetParam()) + 5000);
  if (m.nnz() == 0) return;
  const auto fps = all_footprints(m);
  const SamplingProfile prof = sample_profile(m, m.nrows, 9);
  for (int i = 0; i < kNumTileDims; ++i) {
    const auto& fp = fps[static_cast<std::size_t>(i)];
    // At least 1 word per dim rows of a non-empty tile.
    EXPECT_GT(fp.b2sr_bytes, 0u);
    EXPECT_NEAR(
        fp.compression_pct,
        prof.per_dim[static_cast<std::size_t>(i)].est_compression_pct, 0.05);
  }
}

TEST_P(PropertyTest, MaskedBmmIsSubsetOfUnmaskedMass) {
  const Csr m = random_matrix(static_cast<std::uint64_t>(GetParam()) + 6000);
  const Csr l = lower_triangle(m);
  dispatch_tile_dim(16, [&]<int Dim>() {
    const B2srT<Dim> lb = pack_from_csr<Dim>(l);
    const std::int64_t masked = bmm_bin_bin_sum_masked(lb, lb, lb);
    // The masked sum counts a subset of (L*L^T)'s entries; the full
    // product mass of L*L^T equals sum over t colcount_t(L)^2.
    std::vector<std::int64_t> colcount(static_cast<std::size_t>(l.ncols), 0);
    for (const vidx_t c : l.colind) ++colcount[static_cast<std::size_t>(c)];
    std::int64_t full = 0;
    for (const std::int64_t c : colcount) full += c * c;
    EXPECT_LE(masked, full);
    EXPECT_GE(masked, 0);
    return 0;
  });
}

TEST_P(PropertyTest, NibblePackingAgreesWithPlainB2sr4) {
  // The nibble form is an alternate encoding of the same tiles: both
  // construction paths (direct from CSR, via B2SR-4) must agree, and
  // the round trip back to B2SR-4 must be exact.
  const Csr m = random_matrix(static_cast<std::uint64_t>(GetParam()) + 7000);
  const B2sr4 b = pack_from_csr<4>(m);
  const NibbleB2sr4 direct = pack_nibble4(m);
  const NibbleB2sr4 via = to_nibble4(b);
  EXPECT_EQ(direct.tile_rowptr, via.tile_rowptr);
  EXPECT_EQ(direct.tile_colind, via.tile_colind);
  EXPECT_EQ(direct.bytes, via.bytes);
  const B2sr4 back = from_nibble4(direct);
  EXPECT_EQ(b.bits, back.bits);
}

TEST_P(PropertyTest, SortAndDedupMatchesStableReference) {
  // The radix sort against a comparator stable sort: same entries, and
  // duplicate values summed in input order, bit for bit.  Index ranges
  // vary with the seed so that every key byte is exercised, negative
  // indices (which validate() rejects) included, along with inputs that
  // arrive sorted, sorted with duplicates, or reversed.
  const auto seed = static_cast<std::uint64_t>(GetParam());
  std::mt19937_64 rng(seed + 9000);
  const int bits = 1 + static_cast<int>(seed * 3 % 31);
  const auto draw = [&] {
    return static_cast<vidx_t>(rng() % (std::uint64_t{1} << bits)) -
           (seed % 4 == 3 ? vidx_t{1} << (bits - 1) : 0);
  };
  const std::size_t n = 1 + static_cast<std::size_t>(rng() % 3000);
  Coo a{1, 1, {}, {}, {}};
  for (std::size_t i = 0; i < n; ++i) {
    // Near 1e7 a float's spacing is 1, so sums of these values round
    // differently in a different order: a wrong order shows in the bits.
    a.push(draw(), draw(), static_cast<value_t>(rng() % 4096) * 0.25f + 1e7f);
    if (rng() % 4 == 0) a.push(a.row.back(), a.col.back(), 0.75f);
  }
  const auto stable_order = [](const Coo& m) {
    std::vector<std::size_t> order(m.row.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return m.row[x] != m.row[y] ? m.row[x] < m.row[y] : m.col[x] < m.col[y];
    });
    return order;
  };
  if (seed % 3 == 1) {  // arrive sorted, duplicates included
    Coo s{1, 1, {}, {}, {}};
    for (const std::size_t i : stable_order(a)) s.push(a.row[i], a.col[i], a.val[i]);
    a = s;
  } else if (seed % 3 == 2) {  // arrive reversed
    std::reverse(a.row.begin(), a.row.end());
    std::reverse(a.col.begin(), a.col.end());
    std::reverse(a.val.begin(), a.val.end());
  }
  Coo expect{1, 1, {}, {}, {}};
  for (const std::size_t i : stable_order(a)) {
    if (!expect.row.empty() && expect.row.back() == a.row[i] &&
        expect.col.back() == a.col[i]) {
      expect.val.back() += a.val[i];
    } else {
      expect.push(a.row[i], a.col[i], a.val[i]);
    }
  }
  Coo pattern = pattern_of(a);
  a.sort_and_dedup();
  EXPECT_EQ(expect.row, a.row);
  EXPECT_EQ(expect.col, a.col);
  EXPECT_EQ(expect.val, a.val);
  pattern.sort_and_dedup();
  EXPECT_EQ(expect.row, pattern.row);
  EXPECT_EQ(expect.col, pattern.col);
  EXPECT_TRUE(pattern.is_binary());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range(0, 12),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace bitgb
