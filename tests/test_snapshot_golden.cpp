// Pins snapshot format v1 with committed files (tests/data/snapshot).
//
// Round-trip tests cannot catch a writer and a reader that drift
// together; these files were written once, by the v1 writer that still
// persisted the transposed sections of every graph, and must keep
// loading to the same answers:
//
//   sym_d4.bgbs / sym_d32.bgbs
//       Graph::from_coo(gen_rmat(7, 400, 21), {.tile_dim = 4 / 32})
//       saved with kBitFormats: a symmetrized graph carrying all seven
//       section groups, the transposes included.
//   directed_d8.bgbs / directed_d16.bgbs
//       Graph::from_coo(gen_rmat(7, 400, 22),
//                       {.symmetrize = false, .tile_dim = 8 / 16})
//       saved with kBitFormats.
//
// Beside each `<name>.bgbs`, `<name>.expected` holds what describe()
// printed for the graph the file was written from.  An expected file
// changes only when an algorithm's answer changes on purpose.
#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/tc.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"
#include "sparse/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace bitgb {
namespace {

namespace fs = std::filesystem;
using snap::SectionId;

/// The graph's fingerprint and size, BFS levels from vertex 0 and from
/// the last vertex with an out-edge, CC labels and the triangle count,
/// all on backend `b`.
std::string describe(const gb::Graph& g, Backend b) {
  const Context ctx = Context{}.with_backend(b).with_threads(1);
  const Csr& a = g.adjacency();
  vidx_t last = 0;
  for (vidx_t v = 1; v < a.nrows; ++v) {
    if (!a.row_cols(v).empty()) last = v;
  }
  std::ostringstream out;
  out << "fingerprint " << std::hex << g.fingerprint() << std::dec << '\n'
      << "vertices " << g.num_vertices() << '\n'
      << "edges " << g.num_edges() << '\n';
  for (const vidx_t s : {vidx_t{0}, last}) {
    out << "bfs " << s << ':';
    for (const std::int32_t l : algo::bfs(ctx, g, {s}).levels) out << ' ' << l;
    out << '\n';
  }
  out << "cc:";
  for (const vidx_t c : algo::connected_components(ctx, g).component) {
    out << ' ' << c;
  }
  out << '\n' << "tc " << algo::triangle_count(ctx, g) << '\n';
  return out.str();
}

std::string slurp(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

std::vector<fs::path> golden_files() {
  std::vector<fs::path> out;
  for (const auto& e : fs::directory_iterator(BITGB_SNAPSHOT_GOLDEN_DIR)) {
    if (e.path().extension() == ".bgbs") out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool is_transposed_section(SectionId id) {
  switch (id) {
    case SectionId::kCsrTRowptr:
    case SectionId::kCsrTColind:
    case SectionId::kB2srTRowptr:
    case SectionId::kB2srTColind:
    case SectionId::kB2srTBits:
      return true;
    default:
      return false;
  }
}

std::vector<std::byte> bytes_of(const snap::Snapshot& s, SectionId id) {
  const auto sp = s.section(id);
  return {sp.begin(), sp.end()};
}

class SnapshotGolden : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("bitgb-golden-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

TEST_F(SnapshotGolden, EveryFileLoadsToItsExpectedAnswers) {
  const auto files = golden_files();
  ASSERT_EQ(files.size(), 4u) << "golden files in " << BITGB_SNAPSHOT_GOLDEN_DIR;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    fs::path expected_path = file;
    expected_path.replace_extension(".expected");
    ASSERT_TRUE(fs::exists(expected_path));
    const std::string expected = slurp(expected_path);

    const gb::Graph g = gb::Graph::load(file.string());
    EXPECT_EQ(g.formats() & gb::kBitFormats, gb::kBitFormats);
    EXPECT_EQ(expected, describe(g, Backend::kBit));
    EXPECT_EQ(expected, describe(g, Backend::kReference));
  }
}

TEST_F(SnapshotGolden, DirectedFilesResaveByteForByte) {
  int directed = 0;
  for (const fs::path& file : golden_files()) {
    SCOPED_TRACE(file.filename().string());
    const snap::Snapshot golden = snap::Snapshot::read_file(file.string());
    if ((golden.header().flags & snap::kFlagSymmetrized) != 0) continue;
    ++directed;
    const gb::Graph g = gb::Graph::load(file.string());
    const fs::path resaved = dir_ / file.filename();
    g.save(resaved.string(), gb::kBitFormats);
    EXPECT_EQ(slurp(file), slurp(resaved));
  }
  EXPECT_EQ(directed, 2);
}

TEST_F(SnapshotGolden, SymmetrizedResaveKeepsEverySectionItWrites) {
  int symmetrized = 0;
  for (const fs::path& file : golden_files()) {
    SCOPED_TRACE(file.filename().string());
    const snap::Snapshot golden = snap::Snapshot::read_file(file.string());
    if ((golden.header().flags & snap::kFlagSymmetrized) == 0) continue;
    ++symmetrized;
    const gb::Graph g = gb::Graph::load(file.string());
    const fs::path resaved_path = dir_ / file.filename();
    g.save(resaved_path.string(), gb::kBitFormats);
    const snap::Snapshot resaved =
        snap::Snapshot::read_file(resaved_path.string());

    const auto& gh = golden.header();
    const auto& rh = resaved.header();
    EXPECT_EQ(gh.tile_dim, rh.tile_dim);
    EXPECT_EQ(gh.nrows, rh.nrows);
    EXPECT_EQ(gh.ncols, rh.ncols);
    EXPECT_EQ(gh.nnz, rh.nnz);
    EXPECT_EQ(gh.fingerprint, rh.fingerprint);
    EXPECT_EQ(gh.flags, rh.flags);

    // Whatever the writer emits is the golden section, byte for byte ...
    for (const auto& sec : resaved.sections()) {
      const auto id = static_cast<std::uint32_t>(sec.id);
      ASSERT_TRUE(golden.has(sec.id)) << "section " << id;
      EXPECT_TRUE(bytes_of(golden, sec.id) == bytes_of(resaved, sec.id))
          << "section " << id;
    }
    // ... and it may leave out only the transposes, which a symmetrized
    // adjacency already is.
    for (const auto& sec : golden.sections()) {
      if (is_transposed_section(sec.id)) continue;
      EXPECT_TRUE(resaved.has(sec.id))
          << "section " << static_cast<std::uint32_t>(sec.id);
    }
  }
  EXPECT_EQ(symmetrized, 2);
}

}  // namespace
}  // namespace bitgb
