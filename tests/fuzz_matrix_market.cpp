// Fuzz entry point for read_matrix_market.
//
// Every input must either throw MatrixMarketError or read to a Coo that
// passes validate() and whose entries increase strictly in (row, col):
// sorted and deduplicated, as the reader promises.  Anything else (a
// crash, another exception type, an unsorted or out-of-range result)
// aborts, which libFuzzer reports as a finding.
//
// Built two ways (tests/CMakeLists.txt): with fuzz_replay_main.cpp as
// a plain corpus replay (ctest `fuzz_matrix_market`), and, where the
// compiler accepts -fsanitize=fuzzer, as a libFuzzer binary.
#include "sparse/matrix_market.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

namespace {

bool strictly_increasing(const bitgb::Coo& a) {
  for (std::size_t i = 1; i < a.row.size(); ++i) {
    if (a.row[i - 1] > a.row[i] ||
        (a.row[i - 1] == a.row[i] && a.col[i - 1] >= a.col[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(std::string(data, data + size));
  try {
    const bitgb::Coo a = bitgb::read_matrix_market(in);
    if (!a.validate() || !strictly_increasing(a)) std::abort();
  } catch (const bitgb::MatrixMarketError&) {
    // A typed rejection is a correct outcome.
  }
  return 0;
}
