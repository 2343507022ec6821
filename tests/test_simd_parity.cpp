// SIMD/scalar parity: every vectorized kernel must be bit-for-bit
// identical to the scalar fallback — over the small_matrices() oracle
// corpus plus randomized tail-dim graphs (sizes deliberately not
// multiples of any tile dim), at all four tile dims, against the pull
// BMV kernels, the semiring BMV (all four bundles, masked and not),
// both BMM sums, and the FrontierBatch pull/push kernels.  The integer
// reductions (OR / popcount-add) are exact, and the semiring BMV's two
// bodies fold the same float lanes in the same order, so every
// comparison is exact equality, not tolerance.
//
// ctest runs this binary twice, under both BITGB_KERNEL_VARIANT
// values.  Kernels no longer read the environment (variants arrive
// per call via Exec/Context), so the pair is an env-invariance
// regression: ambient env must not change any result.
#include "core/bmm.hpp"
#include "core/bmv.hpp"
#include "core/frontier_batch.hpp"
#include "core/pack.hpp"
#include "platform/device_profile.hpp"
#include "sparse/convert.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace bitgb {
namespace {

/// The complete digraph on n vertices, self-loops included: every tile
/// is all-ones except the tail tiles, which are all-ones up to n.
Coo complete_graph(vidx_t n) {
  Coo m;
  m.nrows = n;
  m.ncols = n;
  for (vidx_t r = 0; r < n; ++r) {
    for (vidx_t c = 0; c < n; ++c) m.push(r, c);
  }
  return m;
}

/// Randomized graphs with awkward tail dims (none a multiple of 4),
/// spanning sparse to dense tiles so every SIMD inner-loop branch
/// (multi-tile batches, tails, dense-mask vector path, sparse-mask
/// scalar path, all-ones tiles) executes.
const std::vector<std::pair<std::string, Csr>>& fuzz_graphs() {
  static const auto graphs = [] {
    std::vector<std::pair<std::string, Csr>> out;
    out.emplace_back("fuzz_random_157", coo_to_csr(gen_random(157, 2500, 71)));
    out.emplace_back("fuzz_random_dense_83",
                     coo_to_csr(gen_random(83, 3400, 72)));
    out.emplace_back("fuzz_banded_203", coo_to_csr(gen_banded(203, 11, 0.7, 73)));
    out.emplace_back("fuzz_stripe_149", coo_to_csr(gen_stripe(149, 5, 0.6, 74)));
    out.emplace_back("fuzz_rmat_s7", coo_to_csr(gen_rmat(7, 1100, 75)));
    out.emplace_back("fuzz_road_9x13", coo_to_csr(gen_road(9, 13, 0.05, 76)));
    out.emplace_back("fuzz_complete_45", coo_to_csr(complete_graph(45)));
    return out;
  }();
  return graphs;
}

const std::pair<std::string, Csr>& parity_matrix(int mi) {
  if (mi < test::kSmallMatrixCount) return test::small_matrix(mi);
  return fuzz_graphs().at(
      static_cast<std::size_t>(mi - test::kSmallMatrixCount));
}

const int kParityMatrixCount =
    test::kSmallMatrixCount + static_cast<int>(fuzz_graphs().size());

class SimdParityTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int dim() const { return std::get<0>(GetParam()); }
  const Csr& csr() const { return parity_matrix(std::get<1>(GetParam())).second; }
  std::string name() const {
    return parity_matrix(std::get<1>(GetParam())).first + "/dim" +
           std::to_string(dim());
  }

  template <int Dim>
  PackedVecT<Dim> random_packed(vidx_t n, std::uint64_t seed,
                                double density) const {
    PackedVecT<Dim> v(n);
    std::mt19937_64 rng(seed);
    std::bernoulli_distribution on(density);
    for (vidx_t i = 0; i < n; ++i) {
      if (on(rng)) v.set(i);
    }
    return v;
  }

  /// A semiring input: finite values of mixed sign and magnitude (so
  /// plus-times sums round), and with `infinities` some +inf (unreached
  /// SSSP vertices) and -inf (max-times' identity) entries.
  std::vector<value_t> semiring_x(vidx_t n, std::uint64_t seed,
                                  bool infinities) const {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> val(-1.0f, 1.0f);
    std::uniform_int_distribution<int> scale(-8, 8);
    std::uniform_int_distribution<int> kind(0, 9);
    std::vector<value_t> x(static_cast<std::size_t>(n));
    for (auto& v : x) {
      const int k = kind(rng);
      if (infinities && k == 0) {
        v = std::numeric_limits<value_t>::infinity();
      } else if (infinities && k == 1) {
        v = -std::numeric_limits<value_t>::infinity();
      } else {
        v = std::ldexp(val(rng), scale(rng));
      }
    }
    return x;
  }

  FrontierBatch random_batch(vidx_t n, int batch, std::uint64_t seed,
                             double density) const {
    FrontierBatch f(n, batch);
    std::mt19937_64 rng(seed);
    std::bernoulli_distribution on(density);
    for (vidx_t v = 0; v < n; ++v) {
      for (int b = 0; b < batch; ++b) {
        if (on(rng)) f.set(v, b);
      }
    }
    return f;
  }
};

TEST_P(SimdParityTest, BmvBinBinBin) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    for (const double density : {0.05, 0.5, 0.95}) {
      const auto x = random_packed<Dim>(a.ncols, 11 + dim(), density);
      PackedVecT<Dim> ys, yv;
      bmv_bin_bin_bin(a, x, ys, KernelVariant::kScalar);
      bmv_bin_bin_bin(a, x, yv, KernelVariant::kSimd);
      EXPECT_EQ(ys.words, yv.words) << name() << " density " << density;
    }
  });
}

TEST_P(SimdParityTest, BmvBinBinBinMasked) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    const auto x = random_packed<Dim>(a.ncols, 13 + dim(), 0.4);
    const auto mask = random_packed<Dim>(a.nrows, 17 + dim(), 0.5);
    for (const bool complement : {false, true}) {
      PackedVecT<Dim> ys, yv;
      bmv_bin_bin_bin_masked(a, x, mask, complement, ys,
                             KernelVariant::kScalar);
      bmv_bin_bin_bin_masked(a, x, mask, complement, yv,
                             KernelVariant::kSimd);
      EXPECT_EQ(ys.words, yv.words) << name() << " complement " << complement;
    }
  });
}

TEST_P(SimdParityTest, BmvBinBinFull) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    for (const double density : {0.1, 0.9}) {
      const auto x = random_packed<Dim>(a.ncols, 19 + dim(), density);
      std::vector<value_t> ys, yv;
      bmv_bin_bin_full(a, x, ys, KernelVariant::kScalar);
      bmv_bin_bin_full(a, x, yv, KernelVariant::kSimd);
      EXPECT_EQ(ys, yv) << name() << " density " << density;
    }
  });
}

TEST_P(SimdParityTest, BmvBinBinFullMasked) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    const auto x = random_packed<Dim>(a.ncols, 23 + dim(), 0.5);
    const auto mask = random_packed<Dim>(a.nrows, 29 + dim(), 0.3);
    for (const bool complement : {false, true}) {
      std::vector<value_t> ys(static_cast<std::size_t>(a.nrows), -1.0f);
      std::vector<value_t> yv(static_cast<std::size_t>(a.nrows), -1.0f);
      bmv_bin_bin_full_masked(a, x, mask, complement, ys,
                              KernelVariant::kScalar);
      bmv_bin_bin_full_masked(a, x, mask, complement, yv,
                              KernelVariant::kSimd);
      EXPECT_EQ(ys, yv) << name() << " complement " << complement;
    }
  });
}

// The semiring BMV over every bundle: kScalar == kSimd, and the result
// does not depend on the thread count.
TEST_P(SimdParityTest, BmvBinFullFull) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    const auto finite = semiring_x(a.ncols, 47 + dim(), false);
    const auto with_inf = semiring_x(a.ncols, 53 + dim(), true);
    const auto check = [&]<typename Op>(Op, const std::vector<value_t>& x,
                                        const char* op) {
      std::vector<value_t> ys, yv, yv4;
      bmv_bin_full_full<Dim, Op>(a, x, ys, Exec{KernelVariant::kScalar, 1});
      bmv_bin_full_full<Dim, Op>(a, x, yv, Exec{KernelVariant::kSimd, 1});
      bmv_bin_full_full<Dim, Op>(a, x, yv4, Exec{KernelVariant::kSimd, 4});
      EXPECT_EQ(ys, yv) << name() << " " << op;
      EXPECT_EQ(yv, yv4) << name() << " " << op << " threads 4";
    };
    check(PlusTimesOp{}, finite, "plus-times");
    check(MinPlusOp{}, with_inf, "min-plus");
    check(MinIdentityOp{}, with_inf, "min-identity");
    check(MaxTimesOp{}, with_inf, "max-times");
  });
}

TEST_P(SimdParityTest, BmvBinFullFullMasked) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    const auto finite = semiring_x(a.ncols, 59 + dim(), false);
    const auto with_inf = semiring_x(a.ncols, 61 + dim(), true);
    const auto mask = random_packed<Dim>(a.nrows, 67 + dim(), 0.5);
    const auto check = [&]<typename Op>(Op, const std::vector<value_t>& x,
                                        const char* op) {
      for (const bool complement : {false, true}) {
        const std::vector<value_t> prior(static_cast<std::size_t>(a.nrows),
                                         -7.0f);
        auto ys = prior;
        auto yv = prior;
        auto yv4 = prior;
        bmv_bin_full_full_masked<Dim, Op>(a, x, mask, complement, ys,
                                          Exec{KernelVariant::kScalar, 1});
        bmv_bin_full_full_masked<Dim, Op>(a, x, mask, complement, yv,
                                          Exec{KernelVariant::kSimd, 1});
        bmv_bin_full_full_masked<Dim, Op>(a, x, mask, complement, yv4,
                                          Exec{KernelVariant::kSimd, 4});
        EXPECT_EQ(ys, yv) << name() << " " << op << " complement "
                          << complement;
        EXPECT_EQ(yv, yv4) << name() << " " << op << " complement "
                           << complement << " threads 4";
      }
    };
    check(PlusTimesOp{}, finite, "plus-times");
    check(MinPlusOp{}, with_inf, "min-plus");
    check(MinIdentityOp{}, with_inf, "min-identity");
    check(MaxTimesOp{}, with_inf, "max-times");
  });
}

TEST_P(SimdParityTest, BmmBinBinSum) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    EXPECT_EQ(bmm_bin_bin_sum(a, a, KernelVariant::kScalar),
              bmm_bin_bin_sum(a, a, KernelVariant::kSimd))
        << name();
  });
}

TEST_P(SimdParityTest, BmmBinBinSumMasked) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    // Mask = A exercises the sparse-mask scalar path; a dense mask (the
    // full pattern of A*A^T would be big — use A again with itself as
    // both operands) plus the dense fuzz graphs cover the vector path.
    EXPECT_EQ(bmm_bin_bin_sum_masked(a, a, a, KernelVariant::kScalar),
              bmm_bin_bin_sum_masked(a, a, a, KernelVariant::kSimd))
        << name();
  });
}

TEST_P(SimdParityTest, BmmFrontierPull) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    if (a.ncols == 0) return;
    for (const int batch : {3, 64}) {
      const FrontierBatch f = random_batch(a.ncols, batch, 31 + dim(), 0.3);
      FrontierBatch ns, nv;
      bmm_frontier(a, f, ns, KernelVariant::kScalar);
      bmm_frontier(a, f, nv, KernelVariant::kSimd);
      EXPECT_EQ(ns.rows, nv.rows) << name() << " batch " << batch;

      const FrontierBatch mask = random_batch(a.nrows, batch, 37 + dim(), 0.5);
      FrontierBatch ms, mv;
      bmm_frontier_masked(a, f, mask, true, ms, KernelVariant::kScalar);
      bmm_frontier_masked(a, f, mask, true, mv, KernelVariant::kSimd);
      EXPECT_EQ(ms.rows, mv.rows) << name() << " batch " << batch;
    }
  });
}

TEST_P(SimdParityTest, BmmFrontierPushMatchesPull) {
  // The push kernel is scalar in both variants; assert it still agrees
  // with the (variant-ablated) pull kernel on the same expansion, which
  // pins the two directions together under the SIMD engine.
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    if (a.nrows == 0) return;
    const auto at = transpose(a);
    const FrontierBatch f = random_batch(a.nrows, 64, 41 + dim(), 0.15);
    const FrontierBatch mask = random_batch(a.ncols, 64, 43 + dim(), 0.5);

    // Pull expansion over A^T == push expansion over A.
    FrontierBatch pull;
    bmm_frontier_masked(at, f, mask, true, pull, KernelVariant::kSimd);

    FrontierBatch push(a.ncols, 64);
    std::vector<vidx_t> active;
    for (vidx_t tr = 0; tr < a.n_tile_rows(); ++tr) active.push_back(tr);
    std::vector<vidx_t> touched;
    bmm_frontier_push_masked(a, f, active, mask, true, push, touched);
    EXPECT_EQ(pull.rows, push.rows) << name();
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllDimsAllMatrices, SimdParityTest,
    ::testing::Combine(::testing::ValuesIn(std::vector<int>{4, 8, 16, 32}),
                       ::testing::Range(0, kParityMatrixCount)));

TEST(SimdEngine, BackendIsRuntimeVerified) {
  // Whatever the build produced, the active backend must be one the
  // host actually supports — active_backend() is CPUID-gated, so just
  // pin the invariants the dispatchers rely on.
  const auto b = simd::active_backend();
  EXPECT_EQ(simd::vector_backend_available(),
            b != simd::Backend::kScalar);
  EXPECT_NE(std::string(simd::backend_name(b)), "?");
}

TEST(SimdEngine, VariantPlumbing) {
  // resolve_kernel_variant is a pure function of its arguments now — no
  // process-wide state to set, observe, or restore.
  EXPECT_EQ(resolve_kernel_variant(KernelVariant::kScalar),
            KernelVariant::kScalar);
  EXPECT_EQ(resolve_kernel_variant(KernelVariant::kSimd),
            KernelVariant::kSimd);
  for (const int dim : {4, 8, 16, 32}) {
    for (const HotKernel k :
         {HotKernel::kBmvBinBinBin, HotKernel::kBmvBinBinFull,
          HotKernel::kBmmBinBinSum, HotKernel::kSpgemmAccum}) {
      // kAuto resolves through the preference table, never to kAuto.
      const KernelVariant r =
          resolve_kernel_variant(KernelVariant::kAuto, k, dim);
      EXPECT_NE(r, KernelVariant::kAuto);
      EXPECT_EQ(r, preferred_variant(k, dim));
      // Explicit pins beat the table.
      EXPECT_EQ(resolve_kernel_variant(KernelVariant::kScalar, k, dim),
                KernelVariant::kScalar);
    }
  }
  // The with_variant profile helper still names the ablation axis.
  EXPECT_EQ(with_variant(pascal_analog(), KernelVariant::kSimd).name,
            "pascal-analog+simd");
}

TEST(SimdEngine, TileStoreIsCacheLineAligned) {
  const auto a =
      pack_from_csr<8>(test::small_matrix_by_name("random_128"));
  ASSERT_FALSE(a.bits.empty());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.bits.data()) %
                kTileStoreAlign,
            0u);
}

}  // namespace
}  // namespace bitgb
