// Replays the MatrixMarket reader's pinned corpus
// (tests/data/matrix_market).  Every `<name>.mtx` there has a
// `<name>.expected` beside it: the text `describe_read` printed for
// that input on the reader the corpus was written against.  The test
// compares byte for byte, so a reader rewrite must keep every shape,
// entry, value bit and rejection.  An expected file changes only when
// the reader's contract changes on purpose; a mismatch prints the new
// description.
#include "sparse/matrix_market.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace bitgb {
namespace {

namespace fs = std::filesystem;

/// Run `read` (a callable returning a Coo) and render the outcome:
/// "throws MatrixMarketError", or the shape, the entry count, "pattern"
/// or "weighted", then one 0-based `row col` line per entry, with each
/// value as an exact hex float.
template <typename Read>
std::string describe_read(Read&& read) {
  Coo a;
  try {
    a = read();
  } catch (const MatrixMarketError&) {
    return "throws MatrixMarketError\n";
  }
  std::string out = "shape " + std::to_string(a.nrows) + " " +
                    std::to_string(a.ncols) + "\nnnz " +
                    std::to_string(a.nnz()) + "\n" +
                    (a.is_binary() ? "pattern\n" : "weighted\n");
  for (std::size_t i = 0; i < a.row.size(); ++i) {
    out += std::to_string(a.row[i]) + " " + std::to_string(a.col[i]);
    if (!a.is_binary()) {
      char hex[64];
      std::snprintf(hex, sizeof hex, " %a", static_cast<double>(a.val[i]));
      out += hex;
    }
    out += "\n";
  }
  return out;
}

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST(MatrixMarketCorpus, EveryInputReadsToItsExpectedDescription) {
  std::vector<fs::path> inputs;
  for (const auto& e : fs::directory_iterator(BITGB_MM_CORPUS_DIR)) {
    if (e.path().extension() == ".mtx") inputs.push_back(e.path());
  }
  std::sort(inputs.begin(), inputs.end());
  ASSERT_FALSE(inputs.empty()) << "no .mtx inputs in " << BITGB_MM_CORPUS_DIR;

  int accepted = 0;
  int rejected = 0;
  for (const fs::path& mtx : inputs) {
    SCOPED_TRACE(mtx.filename().string());
    fs::path expected_path = mtx;
    expected_path.replace_extension(".expected");
    ASSERT_TRUE(fs::exists(expected_path));
    const std::string expected = slurp(expected_path);

    std::istringstream in(slurp(mtx));
    EXPECT_EQ(expected, describe_read([&] { return read_matrix_market(in); }));
    // The file loader reads through its own buffer; it must agree.
    EXPECT_EQ(expected, describe_read([&] {
                return read_matrix_market_file(mtx.string());
              }));
    ++(expected == "throws MatrixMarketError\n" ? rejected : accepted);
  }
  // The corpus covers both outcomes; an empty half means files went
  // missing.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace bitgb
