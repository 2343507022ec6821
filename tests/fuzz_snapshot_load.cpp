// Fuzz entry point for Graph::load.
//
// Raw byte mutations of a snapshot die at its CRCs, which
// test_snapshot_fuzz already covers.  So the input is read as a
// `.bgbs` image whose checksums are recomputed before the load: the
// fixed header's, then each section's payload and header CRC, walking
// the sections as the header and the section headers declare them.
// Mutated lengths and counts stay as mutated, so the framing checks
// still see them, and every other mutation reaches the structural
// checks of Graph::load.
//
// Every input must either throw SnapshotError, or load to a graph whose
// every materialized format validates, whose adjacency_t() equals
// transpose(adjacency()), and whose packed() holds num_edges() bits.
// Anything else (a crash, another exception type, a graph that breaks
// one of those) aborts, which libFuzzer reports as a finding.
//
// Built two ways (tests/CMakeLists.txt): with fuzz_replay_main.cpp as
// a replay of tests/data/snapshot (ctest `fuzz_snapshot_load`), and,
// where the compiler accepts -fsanitize=fuzzer, as a libFuzzer binary.
#include "graphblas/graph.hpp"
#include "platform/crc32c.hpp"
#include "sparse/csr.hpp"
#include "sparse/snapshot.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

namespace {

using namespace bitgb;

template <typename T>
T get(const std::vector<unsigned char>& b, std::size_t off) {
  T v;
  std::memcpy(&v, b.data() + off, sizeof(T));
  return v;
}

void put_crc(std::vector<unsigned char>& b, std::size_t at,
             std::size_t from, std::size_t len) {
  const std::uint32_t c = crc32c(b.data() + from, len);
  std::memcpy(b.data() + at, &c, sizeof(c));
}

/// Recomputes every CRC the header and section headers declare, and
/// stops where the declared framing runs past the end of the image.
void fix_crcs(std::vector<unsigned char>& b) {
  if (b.size() < snap::kHeaderBytes) return;
  put_crc(b, 60, 0, 60);
  const auto count = get<std::uint32_t>(b, 44);
  std::size_t off = snap::kHeaderBytes;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (b.size() - off < snap::kSectionHeaderBytes) return;
    const auto payload = get<std::uint64_t>(b, off + 8);
    const std::size_t payload_off = off + snap::kSectionHeaderBytes;
    const bool fits = payload <= b.size() - payload_off;
    if (fits) {
      put_crc(b, off + 16, payload_off, static_cast<std::size_t>(payload));
    }
    put_crc(b, off + 20, off, 20);
    if (!fits) return;
    off = payload_off + static_cast<std::size_t>(payload);
  }
}

bool same(const Csr& x, const Csr& y) {
  return x.nrows == y.nrows && x.ncols == y.ncols && x.rowptr == y.rowptr &&
         x.colind == y.colind;
}

bool sound(const gb::Graph& g) {
  const gb::FormatSet f = g.formats();
  const Csr& a = g.adjacency();
  if (!a.validate()) return false;
  if ((f & gb::kFmtCsrT) && !g.adjacency_t().validate()) return false;
  if ((f & gb::kFmtLower) && !g.lower().validate()) return false;
  if ((f & gb::kFmtB2sr) && !g.packed().visit([](const auto& m) {
        return m.validate();
      })) {
    return false;
  }
  if ((f & gb::kFmtB2srT) && !g.packed_t().visit([](const auto& m) {
        return m.validate();
      })) {
    return false;
  }
  if ((f & gb::kFmtB2srLower) && !g.packed_lower().visit([](const auto& m) {
        return m.validate();
      })) {
    return false;
  }
  if ((f & gb::kFmtDegrees) && g.degrees() != out_degrees(a)) return false;
  return same(g.adjacency_t(), transpose(a)) &&
         g.packed().nnz() == g.num_edges();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::vector<unsigned char> image(data, data + size);
  fix_crcs(image);

  std::string path = (std::filesystem::temp_directory_path() /
                      "fuzz_snapshot_load.XXXXXX")
                         .string();
  const int fd = ::mkstemp(path.data());
  if (fd < 0) std::abort();
  const bool written =
      image.empty() ||
      ::write(fd, image.data(), image.size()) ==
          static_cast<ssize_t>(image.size());
  ::close(fd);
  if (!written) std::abort();

  bool ok = true;
  try {
    const gb::Graph g = gb::Graph::load(path);
    ok = sound(g);
  } catch (const snap::SnapshotError&) {
    // A typed rejection is a correct outcome.
  }
  ::unlink(path.c_str());
  if (!ok) std::abort();
  return 0;
}
