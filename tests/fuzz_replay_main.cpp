// Corpus replay for a libFuzzer entry point, for compilers without
// libFuzzer: runs LLVMFuzzerTestOneInput once on every regular file
// named on the command line or found in a directory named there.
//
//   fuzz_matrix_market tests/data/matrix_market [more files or dirs]
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace fs = std::filesystem;

int main(int argc, char** argv) {
  std::vector<fs::path> files;
  for (int i = 1; i < argc; ++i) {
    const fs::path p(argv[i]);
    if (fs::is_directory(p)) {
      for (const auto& e : fs::directory_iterator(p)) {
        if (e.is_regular_file()) files.push_back(e.path());
      }
    } else {
      files.push_back(p);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "usage: %s <corpus file or dir>...\n", argv[0]);
    return 2;
  }
  for (const fs::path& p : files) {
    std::ifstream f(p, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot open %s\n", p.string().c_str());
      return 2;
    }
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(f),
                                          std::istreambuf_iterator<char>()};
    LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
  }
  std::printf("replayed %zu inputs\n", files.size());
  return 0;
}
