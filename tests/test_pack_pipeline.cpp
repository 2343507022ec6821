// Ingest-pipeline differential suite: the rewritten conversion path
// (merge-based fused count+fill pack, COO-direct streaming pack,
// two-phase flat-output bit SpGEMM) must be bit-for-bit identical to
// the pre-rewrite reference implementations over the oracle corpus
// plus randomized tail-dim generator graphs at all four tile dims.
// bit_spgemm is additionally checked against the float csrgemm
// baseline's structural product.  ctest runs it under the "pipeline"
// label.
#include "baseline/csrgemm.hpp"
#include "core/bit_spgemm.hpp"
#include "core/pack.hpp"
#include "sparse/convert.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace bitgb {
namespace {

/// Tail-dim fuzz graphs: sizes deliberately not multiples of any tile
/// dim, spanning sparse scatter to dense blocks so the merge walk hits
/// single-column runs, full-tile runs, and everything between.
const std::vector<std::pair<std::string, Csr>>& fuzz_graphs() {
  static const auto graphs = [] {
    std::vector<std::pair<std::string, Csr>> out;
    out.emplace_back("fuzz_random_211", coo_to_csr(gen_random(211, 3500, 91)));
    out.emplace_back("fuzz_random_dense_77",
                     coo_to_csr(gen_random(77, 3000, 92)));
    out.emplace_back("fuzz_banded_197", coo_to_csr(gen_banded(197, 13, 0.8, 93)));
    out.emplace_back("fuzz_stripe_151", coo_to_csr(gen_stripe(151, 4, 0.7, 94)));
    out.emplace_back("fuzz_rmat_s7", coo_to_csr(gen_rmat(7, 1300, 95)));
    out.emplace_back("fuzz_road_11x13", coo_to_csr(gen_road(11, 13, 0.08, 96)));
    return out;
  }();
  return graphs;
}

const std::pair<std::string, Csr>& pipeline_matrix(int mi) {
  if (mi < test::kSmallMatrixCount) return test::small_matrix(mi);
  return fuzz_graphs().at(
      static_cast<std::size_t>(mi - test::kSmallMatrixCount));
}

const int kPipelineMatrixCount =
    test::kSmallMatrixCount + static_cast<int>(fuzz_graphs().size());

template <int Dim>
void expect_b2sr_equal(const B2srT<Dim>& expected, const B2srT<Dim>& actual,
                       const std::string& what) {
  EXPECT_EQ(expected.nrows, actual.nrows) << what;
  EXPECT_EQ(expected.ncols, actual.ncols) << what;
  EXPECT_EQ(expected.tile_rowptr, actual.tile_rowptr) << what;
  EXPECT_EQ(expected.tile_colind, actual.tile_colind) << what;
  ASSERT_EQ(expected.bits.size(), actual.bits.size()) << what;
  EXPECT_TRUE(std::equal(expected.bits.begin(), expected.bits.end(),
                         actual.bits.begin()))
      << what;
}

class PackPipelineTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int dim() const { return std::get<0>(GetParam()); }
  const Csr& csr() const {
    return pipeline_matrix(std::get<1>(GetParam())).second;
  }
  std::string name() const {
    return pipeline_matrix(std::get<1>(GetParam())).first + "/dim" +
           std::to_string(dim());
  }
};

TEST_P(PackPipelineTest, RewrittenPackMatchesReferenceBitForBit) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const B2srT<Dim> ref = pack_from_csr_reference<Dim>(csr());
    const B2srT<Dim> now = pack_from_csr<Dim>(csr());
    expect_b2sr_equal(ref, now, name());
    EXPECT_TRUE(now.validate()) << name();
  });
}

TEST_P(PackPipelineTest, CooDirectMatchesCsrRouted) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    // The COO path must be order-independent and duplicate-tolerant:
    // shuffle the entries and re-append a sample of them before packing.
    Coo coo = csr_to_coo(csr());
    std::mt19937_64 rng(1234 + static_cast<std::uint64_t>(Dim));
    std::vector<std::size_t> perm(coo.row.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), rng);
    Coo shuffled{coo.nrows, coo.ncols, {}, {}, {}};
    for (const std::size_t i : perm) {
      shuffled.push(coo.row[i], coo.col[i]);
    }
    for (std::size_t i = 0; i < perm.size(); i += 7) {
      shuffled.push(coo.row[perm[i]], coo.col[perm[i]]);  // duplicates
    }
    const B2srT<Dim> direct = pack_from_coo<Dim>(shuffled);
    const B2srT<Dim> routed = pack_from_csr<Dim>(coo_to_csr(shuffled));
    expect_b2sr_equal(routed, direct, name());
  });
}

TEST_P(PackPipelineTest, CooAnyDispatchesLikeTyped) {
  const Coo coo = csr_to_coo(csr());
  const B2srAny any = pack_coo_any(coo, dim());
  EXPECT_EQ(dim(), any.tile_dim()) << name();
  EXPECT_EQ(pack_any(csr(), dim()).nnz_tiles(), any.nnz_tiles()) << name();
  EXPECT_EQ(csr().nnz(), any.nnz()) << name();
}

TEST_P(PackPipelineTest, CountNonemptyTilesMatchesPack) {
  // count_nonempty_tiles and the pack count pass share one merge; this
  // pins the shared discovery against the packed result.
  EXPECT_EQ(count_nonempty_tiles(csr(), dim()),
            pack_any(csr(), dim()).nnz_tiles())
      << name();
}

TEST_P(PackPipelineTest, SpgemmMatchesReferenceBitForBit) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(csr());
    const B2srT<Dim> ref = bit_spgemm_reference(a, a);
    const B2srT<Dim> now = bit_spgemm(a, a);
    expect_b2sr_equal(ref, now, name());
    EXPECT_TRUE(now.validate()) << name();
  });
}

TEST_P(PackPipelineTest, SpgemmMatchesCsrgemmPattern) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(csr());
    const Csr ours = unpack_to_csr(bit_spgemm(a, a));
    Csr unit = csr();
    unit.val.assign(static_cast<std::size_t>(unit.nnz()), 1.0f);
    const Csr gold = baseline::csrgemm(unit, unit);
    EXPECT_EQ(gold.rowptr, ours.rowptr) << name();
    EXPECT_EQ(gold.colind, ours.colind) << name();
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllDimsAllMatrices, PackPipelineTest,
    ::testing::Combine(::testing::ValuesIn(std::vector<int>{4, 8, 16, 32}),
                       ::testing::Range(0, kPipelineMatrixCount)));

TEST(PackPipeline, EmptyCooPacksToNoTiles) {
  const Coo empty{64, 64, {}, {}, {}};
  for (const int dim : kTileDims) {
    const B2srAny b = pack_coo_any(empty, dim);
    EXPECT_EQ(0, b.nnz_tiles());
    EXPECT_EQ(0, b.nnz());
  }
}

TEST(PackPipeline, WeightedCooPacksPatternOnly) {
  Coo w{16, 16, {}, {}, {}};
  w.push(3, 5, 2.5f);
  w.push(3, 5, -2.5f);  // values ignored; the pattern bit stays set
  w.push(9, 14, 0.25f);
  const B2sr8 b = pack_from_coo<8>(w);
  EXPECT_EQ(2, b.nnz());
  const Csr routed = coo_to_csr(w);
  expect_b2sr_equal(pack_from_csr<8>(routed), b, "weighted coo");
}

TEST(PackPipeline, SpgemmAnnihilatedTilesAreDropped) {
  // A's only tile points at a zero row of B's only tile, so every
  // product annihilates; the flat path's compaction must drop the tile
  // (validate() rejects stored all-zero tiles).
  Coo ca{8, 8, {}, {}, {}};
  ca.push(0, 0);  // A: bit (0,0) -> selects B's bit-row 0
  Coo cb{8, 8, {}, {}, {}};
  cb.push(3, 5);  // B: row 0 of the tile is empty
  const B2sr8 a = pack_from_csr<8>(coo_to_csr(ca));
  const B2sr8 b = pack_from_csr<8>(coo_to_csr(cb));
  const B2sr8 c = bit_spgemm(a, b);
  EXPECT_EQ(0, c.nnz_tiles());
  EXPECT_TRUE(c.validate());
  expect_b2sr_equal(bit_spgemm_reference(a, b), c, "annihilated");
}

}  // namespace
}  // namespace bitgb
