// Unit tests for the Matrix Market reader/writer.
#include "sparse/convert.hpp"
#include "sparse/matrix_market.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace bitgb {
namespace {

TEST(MatrixMarket, ReadsPatternGeneral) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% a comment\n"
      "3 3 2\n"
      "1 2\n"
      "3 1\n");
  const Coo a = read_matrix_market(in);
  EXPECT_EQ(3, a.nrows);
  EXPECT_EQ(3, a.ncols);
  EXPECT_EQ(2, a.nnz());
  EXPECT_TRUE(a.is_binary());
  EXPECT_EQ(0, a.row[0]);  // 1-based -> 0-based
  EXPECT_EQ(1, a.col[0]);
}

TEST(MatrixMarket, ReadsRealValues) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.5\n"
      "2 2 -2.0\n");
  const Coo a = read_matrix_market(in);
  ASSERT_EQ(2u, a.val.size());
  EXPECT_FLOAT_EQ(1.5f, a.val[0]);
  EXPECT_FLOAT_EQ(-2.0f, a.val[1]);
}

TEST(MatrixMarket, SymmetricExpandsBothTriangles) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  const Coo a = read_matrix_market(in);
  // (1,0) expands to (0,1); diagonal (2,2) does not double.
  EXPECT_EQ(3, a.nnz());
}

TEST(MatrixMarket, SkewSymmetricNegatesMirror) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  const Coo a = read_matrix_market(in);
  ASSERT_EQ(2, a.nnz());
  // Entries sorted: (0,1) = -3, (1,0) = 3.
  EXPECT_FLOAT_EQ(-3.0f, a.val[0]);
  EXPECT_FLOAT_EQ(3.0f, a.val[1]);
}

TEST(MatrixMarket, SymmetricNeedsASquareSizeLine) {
  // A symmetric banner mirrors (r, c) to (c, r), which leaves a
  // rectangular shape: (5, 2) of a 5 x 3 matrix would mirror to (1, 4).
  for (const std::string sym : {"symmetric", "skew-symmetric"}) {
    std::istringstream in("%%MatrixMarket matrix coordinate real " + sym +
                          "\n"
                          "5 3 1\n"
                          "5 2 1.0\n");
    EXPECT_THROW(read_matrix_market(in), MatrixMarketError) << sym;
  }
  std::istringstream square(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "5 5 1\n"
      "5 2\n");
  const Coo a = read_matrix_market(square);
  EXPECT_TRUE(a.validate());
  EXPECT_EQ(2, a.nnz());
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::istringstream in("3 3 0\n");
  EXPECT_THROW(read_matrix_market(in), MatrixMarketError);
}

TEST(MatrixMarket, RejectsOutOfRangeIndex) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 1\n"
      "3 1\n");
  EXPECT_THROW(read_matrix_market(in), MatrixMarketError);
}

TEST(MatrixMarket, RejectsTruncatedEntryList) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n");
  EXPECT_THROW(read_matrix_market(in), MatrixMarketError);
}

TEST(MatrixMarket, RejectsTrailingDataAfterDeclaredEntries) {
  // More entries than the size line declares: the old reader silently
  // dropped the tail, handing back a graph missing edges the file
  // plainly contains.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3 1\n"
      "1 1\n"
      "2 2\n");
  EXPECT_THROW(read_matrix_market(in), MatrixMarketError);
  // Non-entry garbage after the last entry is rejected too.
  std::istringstream garbage(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3 1\n"
      "1 1\n"
      "unexpected trailer\n");
  EXPECT_THROW(read_matrix_market(garbage), MatrixMarketError);
  // Trailing comments and blank/whitespace lines remain legal.
  std::istringstream benign(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3 1\n"
      "1 1\n"
      "% a trailing comment\n"
      "\n"
      "   \n");
  EXPECT_EQ(read_matrix_market(benign).nnz(), 1);
}

TEST(MatrixMarket, RejectsUnsupportedFormat) {
  std::istringstream in(
      "%%MatrixMarket matrix array real general\n"
      "2 2\n");
  EXPECT_THROW(read_matrix_market(in), MatrixMarketError);
}

TEST(MatrixMarket, RejectsDimensionBeyondIndexType) {
  // 3e9 rows exceeds the 32-bit vidx_t; the old reader truncated the
  // cast silently and mis-indexed every entry.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3000000000 3 1\n"
      "1 1\n");
  EXPECT_THROW(read_matrix_market(in), MatrixMarketError);
  std::istringstream in2(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 3000000000 1\n"
      "1 1\n");
  EXPECT_THROW(read_matrix_market(in2), MatrixMarketError);
}

TEST(MatrixMarket, AcceptsDimensionAtIndexTypeLimit) {
  // Exactly INT32_MAX rows is representable and must keep working.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2147483647 2147483647 1\n"
      "2147483647 1\n");
  const Coo a = read_matrix_market(in);
  EXPECT_EQ(std::numeric_limits<vidx_t>::max(), a.nrows);
  EXPECT_EQ(std::numeric_limits<vidx_t>::max() - 1, a.row[0]);
}

TEST(MatrixMarket, RejectsSymmetricNnzBeyondEdgeType) {
  // Symmetric inputs store up to 2*nz entries; a declared count whose
  // doubling overflows eidx_t must be rejected up front, not after an
  // hours-long parse.
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "100 100 5000000000000000000\n"
      "2 1\n");
  EXPECT_THROW(read_matrix_market(in), MatrixMarketError);
}

TEST(MatrixMarket, OverstatedSizeLineFailsAsShortInput) {
  // The declared count must not size an allocation by itself: a size
  // line that promises 10^15 entries over three lines of input fails as
  // a short input, not as std::bad_alloc from the up-front reserve.
  for (const std::string sym : {"general", "symmetric"}) {
    std::istringstream in("%%MatrixMarket matrix coordinate pattern " + sym +
                          "\n"
                          "2 2 1000000000000000\n"
                          "1 1\n");
    try {
      (void)read_matrix_market(in);
      ADD_FAILURE() << sym << ": an overstated count was accepted";
    } catch (const MatrixMarketError& e) {
      EXPECT_STREQ("fewer entries than declared", e.what()) << sym;
    }
  }
}

TEST(MatrixMarket, FileWriterReportsAFullDisk) {
  // /dev/full accepts the open and fails every write with ENOSPC; the
  // writer must say so rather than leave a truncated file behind.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this host";
  }
  Coo a{4, 4, {}, {}, {}};
  for (vidx_t i = 0; i < 4; ++i) a.push(i, 3 - i);
  a.sort_and_dedup();
  try {
    write_matrix_market_file("/dev/full", a);
    ADD_FAILURE() << "a write to /dev/full returned normally";
  } catch (const MatrixMarketError& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
}

TEST(MatrixMarket, SymmetricReserveAvoidsMidParseRealloc) {
  // Functional cover for the 2*nz reserve: a fully off-diagonal
  // symmetric pattern mirrors every entry and must land intact.
  std::ostringstream src;
  src << "%%MatrixMarket matrix coordinate pattern symmetric\n"
      << "64 64 63\n";
  for (int r = 2; r <= 64; ++r) src << r << " " << (r - 1) << "\n";
  std::istringstream in(src.str());
  const Coo a = read_matrix_market(in);
  EXPECT_EQ(2 * 63, a.nnz());
}

TEST(MatrixMarket, WriteReadRoundTripPattern) {
  Coo a{5, 5, {}, {}, {}};
  a.push(0, 4);
  a.push(3, 1);
  a.push(4, 4);
  a.sort_and_dedup();
  std::ostringstream out;
  write_matrix_market(out, a);
  std::istringstream in(out.str());
  const Coo b = read_matrix_market(in);
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(a.col, b.col);
  EXPECT_TRUE(b.is_binary());
}

TEST(MatrixMarket, WriteReadRoundTripAcrossFixturePatterns) {
  // Every pattern category (including empty and dense) survives a trip
  // through the text format.
  for (const auto& [name, m] : test::small_matrices_cached()) {
    SCOPED_TRACE(name);
    const Coo a = csr_to_coo(m);
    std::ostringstream out;
    write_matrix_market(out, a);
    std::istringstream in(out.str());
    const Coo b = read_matrix_market(in);
    EXPECT_EQ(m.nrows, b.nrows);
    EXPECT_EQ(m.ncols, b.ncols);
    EXPECT_EQ(a.row, b.row);
    EXPECT_EQ(a.col, b.col);
  }
}

TEST(MatrixMarket, WriteReadRoundTripWeighted) {
  Coo a{3, 4, {}, {}, {}};
  a.push(0, 1, 2.25f);
  a.push(2, 3, -1.5f);
  a.sort_and_dedup();
  std::ostringstream out;
  write_matrix_market(out, a);
  std::istringstream in(out.str());
  const Coo b = read_matrix_market(in);
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(a.col, b.col);
  ASSERT_EQ(a.val.size(), b.val.size());
  for (std::size_t i = 0; i < a.val.size(); ++i) {
    EXPECT_FLOAT_EQ(a.val[i], b.val[i]);
  }
}

TEST(MatrixMarket, WriteReadRoundTripIsBitExact) {
  // Six significant digits turned 16777215 into 16777200; every finite
  // float must come back with the same bits.
  using lim = std::numeric_limits<float>;
  std::vector<float> vals = {16777215.0f,        1.23456789f,
                             lim::max(),         -lim::max(),
                             lim::min(),         -lim::min(),
                             lim::denorm_min(),  -lim::denorm_min(),
                             lim::min() / 3.0f,  lim::epsilon(),
                             0.1f,               -1.0f / 3.0f};
  std::mt19937 rng(0x6d6d);
  while (vals.size() < 4096) {
    const float f = std::bit_cast<float>(static_cast<std::uint32_t>(rng()));
    if (std::isfinite(f)) vals.push_back(f);
  }
  // One row, one column per value, so the entries stay in input order.
  Coo a{1, static_cast<vidx_t>(vals.size()), {}, {}, {}};
  for (std::size_t i = 0; i < vals.size(); ++i) {
    a.push(0, static_cast<vidx_t>(i), vals[i]);
  }
  std::ostringstream out;
  write_matrix_market(out, a);
  std::istringstream in(out.str());
  const Coo b = read_matrix_market(in);
  ASSERT_EQ(a.col, b.col);
  ASSERT_EQ(a.val.size(), b.val.size());
  int mismatches = 0;
  for (std::size_t i = 0; i < a.val.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a.val[i]) !=
        std::bit_cast<std::uint32_t>(b.val[i])) {
      ADD_FAILURE() << "value " << i << ": wrote " << a.val[i] << ", read "
                    << b.val[i];
      if (++mismatches == 10) break;
    }
  }
}

}  // namespace
}  // namespace bitgb
