// Packing tests: CSR <-> B2SR round trips over every tile size and
// pattern category, format invariants, tile counting, nibble packing.
#include "core/pack.hpp"
#include "core/stats.hpp"
#include "sparse/convert.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

namespace bitgb {
namespace {

// Parameterized over (tile dim, matrix index into small_matrices()).
class PackRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PackRoundTrip, UnpackOfPackEqualsOriginal) {
  const auto [dim, mi] = GetParam();
  const auto& [name, m] = test::small_matrix(mi);

  const B2srAny b = pack_any(m, dim);
  const Csr back = unpack_any(b);
  EXPECT_EQ(m.rowptr, back.rowptr) << name << " dim=" << dim;
  EXPECT_EQ(m.colind, back.colind) << name << " dim=" << dim;
}

TEST_P(PackRoundTrip, PackedFormatSatisfiesInvariants) {
  const auto [dim, mi] = GetParam();
  const auto& [name, m] = test::small_matrix(mi);

  const B2srAny b = pack_any(m, dim);
  const bool ok = b.visit([](const auto& t) { return t.validate(); });
  EXPECT_TRUE(ok) << name << " dim=" << dim;
  EXPECT_EQ(m.nnz(), b.nnz()) << name << " dim=" << dim;
  EXPECT_EQ(m.nrows, b.nrows());
  EXPECT_EQ(m.ncols, b.ncols());
}

TEST_P(PackRoundTrip, TileCountMatchesPackedTiles) {
  const auto [dim, mi] = GetParam();
  const auto& [name, m] = test::small_matrix(mi);
  EXPECT_EQ(count_nonempty_tiles(m, dim), pack_any(m, dim).nnz_tiles())
      << name << " dim=" << dim;
}

INSTANTIATE_TEST_SUITE_P(
    AllDimsAllPatterns, PackRoundTrip,
    ::testing::Combine(::testing::ValuesIn({4, 8, 16, 32}),
                       ::testing::Range(0, test::kSmallMatrixCount)),
    [](const auto& info) {
      return "dim" + std::to_string(std::get<0>(info.param)) + "_" +
             test::kSmallMatrixOracle[static_cast<std::size_t>(
                                          std::get<1>(info.param))]
                 .name;
    });

TEST(Pack, EmptyMatrixPacksToNoTiles) {
  const Csr empty = coo_to_csr(Coo{64, 64, {}, {}, {}});
  for (const int dim : kTileDims) {
    const B2srAny b = pack_any(empty, dim);
    EXPECT_EQ(0, b.nnz_tiles());
    EXPECT_EQ(0, b.nnz());
  }
}

TEST(Pack, SingleEntryLandsInRightTile) {
  Coo a{100, 100, {}, {}, {}};
  a.push(37, 85);
  const B2sr8 b = pack_from_csr<8>(coo_to_csr(a));
  ASSERT_EQ(1, b.nnz_tiles());
  // Tile row 37/8 = 4, tile col 85/8 = 10, bit row 5, bit col 5.
  EXPECT_EQ(10, b.tile_colind[0]);
  EXPECT_EQ(0, b.tile_rowptr[4]);
  EXPECT_EQ(1, b.tile_rowptr[5]);
  EXPECT_EQ(std::uint8_t{1u << 5}, b.tile(0)[5]);
}

TEST(Pack, TailTilesCarryNoOutOfRangeBits) {
  // 33x33 dense: with dim 32 the edge tiles are 1 wide/tall.
  const Csr& dense33 = test::small_matrix_by_name("dense_33");
  ASSERT_EQ(33, dense33.nrows);
  const B2sr32 b = pack_from_csr<32>(dense33);
  EXPECT_TRUE(b.validate());  // validate() rejects out-of-range bits
  // 2x2 tile grid; the (1,1) corner tile would only hold the diagonal
  // entry (32,32), which dense_33 omits, so 3 tiles are non-empty.
  EXPECT_EQ(3, b.nnz_tiles());
}

TEST(Pack, StorageBytesMatchesFormula) {
  const Csr m = coo_to_csr(gen_banded(200, 6, 0.5, 3));
  const B2sr16 b = pack_from_csr<16>(m);
  const std::size_t expected =
      b.tile_rowptr.size() * 4 + b.tile_colind.size() * 4 +
      b.bits.size() * 2;  // uint16 words
  EXPECT_EQ(expected, b.storage_bytes());
}

TEST(Pack, ValidateRejectsStoredEmptyTile) {
  Coo a{8, 8, {}, {}, {}};
  a.push(0, 0);
  B2sr4 b = pack_from_csr<4>(coo_to_csr(a));
  ASSERT_TRUE(b.validate());
  // Zero out the only tile's bits: now it stores an empty tile.
  for (auto& w : b.bits) w = 0;
  EXPECT_FALSE(b.validate());
}

TEST(Pack, ValidateRejectsUnsortedTileColumns) {
  const Csr m = coo_to_csr(gen_banded(64, 10, 1.0, 4));
  B2sr8 b = pack_from_csr<8>(m);
  ASSERT_GE(b.tile_rowptr[1], 2);  // first tile-row has >= 2 tiles
  std::swap(b.tile_colind[0], b.tile_colind[1]);
  EXPECT_FALSE(b.validate());
}

TEST(Pack, ValidateRejectsATileRowptrThatOvershoots) {
  // Tile-row 0 claims 100 tiles of a 1-tile store before tile-row 1
  // falls back: validate must stop at the bound, not read past it.
  Coo a{8, 8, {}, {}, {}};
  a.push(0, 0);
  B2sr4 b = pack_from_csr<4>(coo_to_csr(a));
  ASSERT_EQ(b.tile_rowptr, (std::vector<vidx_t>{0, 1, 1}));
  b.tile_rowptr[1] = 100;
  EXPECT_FALSE(b.validate());
}

TEST(PackDispatch, RejectsUnsupportedDim) {
  const Csr m = coo_to_csr(gen_random(16, 30, 5));
  EXPECT_THROW(pack_any(m, 7), std::invalid_argument);
  EXPECT_THROW(pack_any(m, 64), std::invalid_argument);
}

// --- nibble-packed B2SR-4 (paper §III-B 4-bit packing) ---

TEST(NibblePack, RoundTripThroughNibbleForm) {
  for (const auto& [name, m] : test::small_matrices_cached()) {
    const B2sr4 b = pack_from_csr<4>(m);
    const NibbleB2sr4 n = to_nibble4(b);
    const B2sr4 back = from_nibble4(n);
    EXPECT_EQ(b.bits, back.bits) << name;
    EXPECT_EQ(b.tile_colind, back.tile_colind) << name;
  }
}

TEST(NibblePack, HalvesTileStorage) {
  const Csr m = coo_to_csr(gen_banded(128, 3, 0.8, 6));
  const B2sr4 b = pack_from_csr<4>(m);
  const NibbleB2sr4 n = pack_nibble4(m);
  EXPECT_EQ(b.nnz_tiles(), n.nnz_tiles());
  // bytes: 2 per tile instead of 4.
  EXPECT_EQ(static_cast<std::size_t>(n.nnz_tiles()) * 2, n.bytes.size());
  EXPECT_LT(n.storage_bytes(), b.storage_bytes());
}

TEST(NibblePack, RowAccessorReadsBothNibbles) {
  Coo a{4, 4, {}, {}, {}};
  a.push(0, 1);  // row 0 -> low nibble of byte 0
  a.push(1, 2);  // row 1 -> high nibble of byte 0
  a.push(2, 3);  // row 2 -> low nibble of byte 1
  a.push(3, 0);  // row 3 -> high nibble of byte 1
  const NibbleB2sr4 n = pack_nibble4(coo_to_csr(a));
  ASSERT_EQ(1, n.nnz_tiles());
  EXPECT_EQ(0b0010, n.row(0, 0));
  EXPECT_EQ(0b0100, n.row(0, 1));
  EXPECT_EQ(0b1000, n.row(0, 2));
  EXPECT_EQ(0b0001, n.row(0, 3));
}

}  // namespace
}  // namespace bitgb
