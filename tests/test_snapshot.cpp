// Durable snapshot suite: crc32c vectors and SW/HW parity, the
// save/load roundtrip over the oracle corpus (bit-identical files and
// prewarmed caches), crash-consistency under the injected I/O faults,
// registry save_all/recover (including quarantine), and the
// fingerprint-keyed re-add dedup.
#include "algorithms/bfs.hpp"
#include "algorithms/tc.hpp"
#include "graphblas/graph.hpp"
#include "platform/crc32c.hpp"
#include "platform/fault_injector.hpp"
#include "serving/server.hpp"
#include "sparse/convert.hpp"
#include "sparse/generators.hpp"
#include "sparse/snapshot.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace bitgb {
namespace {

namespace fs = std::filesystem;
using snap::SnapshotError;

/// Fresh scratch directory per test, removed on teardown.
class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("bitgb-snap-" +
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

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::vector<char> slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------
// crc32c
// ---------------------------------------------------------------------

TEST(Crc32c, Rfc3720Vector) {
  // The iSCSI check value: crc32c("123456789") == 0xE3069283.
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, KnownValues) {
  EXPECT_EQ(crc32c("", 0), 0u);
  const std::vector<unsigned char> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<unsigned char> ffs(32, 0xFF);
  EXPECT_EQ(crc32c(ffs.data(), ffs.size()), 0x62A8AB43u);
}

TEST(Crc32c, IncrementalComposition) {
  const char* s = "the quick brown fox jumps over the lazy dog";
  const std::size_t n = 43;
  const std::uint32_t whole = crc32c(s, n);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{8},
                                  std::size_t{21}, n}) {
    EXPECT_EQ(crc32c(s + split, n - split, crc32c(s, split)), whole);
  }
}

TEST(Crc32c, SoftwareHardwareParity) {
  if (!detail::crc32c_hw_active()) {
    GTEST_SKIP() << "no SSE4.2 CRC32 on this host";
  }
  std::mt19937_64 rng(0xc4c);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                std::size_t{7}, std::size_t{8},
                                std::size_t{9}, std::size_t{63},
                                std::size_t{64}, std::size_t{1000},
                                std::size_t{4096}}) {
    std::vector<unsigned char> buf(len);
    for (auto& b : buf) b = static_cast<unsigned char>(rng());
    EXPECT_EQ(crc32c(buf.data(), len), detail::crc32c_sw(buf.data(), len))
        << "len " << len;
  }
}

// ---------------------------------------------------------------------
// Graph save/load roundtrip
// ---------------------------------------------------------------------

TEST_F(SnapshotTest, RoundtripOracleCorpusBitIdentical) {
  // The oracle corpus, plus a skewed graph whose L is degree-ordered.
  auto inputs = test::small_matrices();
  inputs.emplace_back("rmat_12_skewed",
                      coo_to_csr(gen_rmat(12, 1 << 15, 42)));
  const Context ctx = Context{}.with_threads(1);
  for (const auto& [name, a] : inputs) {
    const gb::Graph g = gb::Graph::from_csr(a);
    const std::string p = path(name + ".bgbs");
    g.save(p, gb::kBitFormats);

    const gb::Graph loaded = gb::Graph::load(p);
    EXPECT_EQ(loaded.num_vertices(), g.num_vertices()) << name;
    EXPECT_EQ(loaded.num_edges(), g.num_edges()) << name;
    EXPECT_EQ(loaded.fingerprint(), g.fingerprint()) << name;
    EXPECT_EQ(loaded.adjacency().rowptr, g.adjacency().rowptr) << name;
    EXPECT_EQ(loaded.adjacency().colind, g.adjacency().colind) << name;
    EXPECT_EQ(loaded.lower().rowptr, g.lower().rowptr) << name;
    EXPECT_EQ(loaded.lower().colind, g.lower().colind) << name;
    EXPECT_EQ(algo::triangle_count(ctx, loaded), algo::triangle_count(ctx, g))
        << name;

    // Every persisted format is already materialized — the warm-restart
    // contract: no re-prewarm, no re-pack.
    EXPECT_EQ(loaded.formats() & gb::kBitFormats, gb::kBitFormats) << name;

    // Re-saving the loaded graph must reproduce the file byte for byte:
    // the strongest cheap statement that nothing was lost or recomputed
    // differently.
    const std::string p2 = path(name + ".resave.bgbs");
    loaded.save(p2, gb::kBitFormats);
    EXPECT_EQ(slurp(p), slurp(p2)) << name;
  }
}

TEST_F(SnapshotTest, LoadedGraphServesBitIdenticalQueries) {
  const gb::Graph g = gb::Graph::from_csr(test::small_matrix(3).second);
  const std::string p = path("g.bgbs");
  g.save(p);
  const gb::Graph loaded = gb::Graph::load(p);
  const Context ctx = Context{}.with_threads(1);
  for (const vidx_t s : {vidx_t{0}, vidx_t{17}, vidx_t{127}}) {
    EXPECT_EQ(algo::bfs(ctx, loaded, {s}).levels,
              algo::bfs(ctx, g, {s}).levels)
        << "source " << s;
  }
}

TEST_F(SnapshotTest, UnitFormatsAreDerivedNotPersisted) {
  const gb::Graph g = gb::Graph::from_csr(test::small_matrix(2).second);
  const std::string p = path("g.bgbs");
  // Ask for everything: the writer must strip the unit-CSR bit.
  g.save(p, gb::kAllFormats);
  const gb::Graph loaded = gb::Graph::load(p);
  EXPECT_EQ(loaded.formats() & gb::kFmtUnitCsrT, 0u);
  // It still materializes lazily on demand.
  EXPECT_EQ(loaded.unit_adjacency_t().val.size(),
            static_cast<std::size_t>(loaded.num_edges()));
  EXPECT_NE(loaded.formats() & gb::kFmtUnitCsrT, 0u);
}

TEST_F(SnapshotTest, CsrOnlySnapshotRewarmsLazily) {
  // Directed, so that no transpose exists until it is built (a
  // symmetric graph's transposes are A's).
  gb::GraphOptions directed;
  directed.symmetrize = false;
  const gb::Graph g =
      gb::Graph::from_csr(test::small_matrix(4).second, directed);
  const std::string p = path("csr-only.bgbs");
  g.save(p, gb::kFmtCsr);  // nothing but the canonical adjacency
  const gb::Graph loaded = gb::Graph::load(p);
  EXPECT_EQ(loaded.formats(), gb::kFmtCsr);
  // Derived formats still build on demand and agree with the original.
  EXPECT_EQ(loaded.packed().nnz(), g.num_edges());
  EXPECT_EQ(loaded.degrees(), g.degrees());
}

// ---------------------------------------------------------------------
// Transposes: a symmetric graph persists none; a persisted one is proven
// ---------------------------------------------------------------------

using snap::SectionId;

/// Writes `path` with header `h` and one section per (id, from) pair,
/// each holding the bytes of `src`'s section `from`.
void write_sections(const std::string& path, const snap::SnapshotHeader& h,
                    const snap::Snapshot& src,
                    const std::vector<std::pair<SectionId, SectionId>>& secs) {
  snap::SnapshotWriter w(h);
  for (const auto& [id, from] : secs) {
    const auto bytes = src.section(from);
    w.add_section(id, bytes.data(), bytes.size());
  }
  w.write_file(path);
}

/// Every section of `s`, each written under its own id.
std::vector<std::pair<SectionId, SectionId>> own_sections(
    const snap::Snapshot& s) {
  std::vector<std::pair<SectionId, SectionId>> out;
  for (const auto& sec : s.sections()) out.emplace_back(sec.id, sec.id);
  return out;
}

void expect_invalid_structure(const std::string& path, const char* what) {
  try {
    (void)gb::Graph::load(path);
    FAIL() << what << ": loaded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kInvalidStructure)
        << what << ": " << e.what();
  }
}

constexpr SectionId kTransposedSections[] = {
    SectionId::kCsrTRowptr, SectionId::kCsrTColind, SectionId::kB2srTRowptr,
    SectionId::kB2srTColind, SectionId::kB2srTBits};

TEST_F(SnapshotTest, SymmetrizedSnapshotPersistsNoTranspose) {
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(8, 1500, 5));
  const std::string p = path("sym.bgbs");
  g.save(p, gb::kBitFormats);
  const snap::Snapshot s = snap::Snapshot::read_file(p);
  for (const SectionId id : kTransposedSections) {
    EXPECT_FALSE(s.has(id)) << static_cast<std::uint32_t>(id);
  }
  EXPECT_TRUE(s.has(SectionId::kB2srBits));

  const gb::Graph loaded = gb::Graph::load(p);
  EXPECT_EQ(loaded.formats() & gb::kBitFormats, gb::kBitFormats);
  EXPECT_EQ(&loaded.adjacency_t(), &loaded.adjacency());
  EXPECT_EQ(&loaded.packed_t(), &loaded.packed());

  // Asking for A's B2SR transpose alone persists A's B2SR.
  const std::string p2 = path("sym-b2srt.bgbs");
  g.save(p2, gb::kFmtB2srT);
  const snap::Snapshot s2 = snap::Snapshot::read_file(p2);
  EXPECT_TRUE(s2.has(SectionId::kB2srBits));
  EXPECT_FALSE(s2.has(SectionId::kB2srTBits));
  EXPECT_NE(gb::Graph::load(p2).formats() & gb::kFmtB2srT, 0u);
}

TEST_F(SnapshotTest, SymmetrizedSnapshotWithTransposesLoadsAfterTheCheck) {
  // The layout older writers used: A's bytes again under the transposed
  // ids.  It loads to the same graph; a transpose that is not A's bytes
  // fails.
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(8, 1500, 5));
  const std::string p = path("sym.bgbs");
  g.save(p, gb::kBitFormats);
  const snap::Snapshot s = snap::Snapshot::read_file(p);
  const Context ctx = Context{}.with_threads(1);
  const auto levels = algo::bfs(ctx, g, {vidx_t{3}}).levels;

  auto legacy = own_sections(s);
  legacy.emplace_back(SectionId::kCsrTRowptr, SectionId::kCsrRowptr);
  legacy.emplace_back(SectionId::kCsrTColind, SectionId::kCsrColind);
  legacy.emplace_back(SectionId::kB2srTRowptr, SectionId::kB2srRowptr);
  legacy.emplace_back(SectionId::kB2srTColind, SectionId::kB2srColind);
  legacy.emplace_back(SectionId::kB2srTBits, SectionId::kB2srBits);
  write_sections(path("legacy.bgbs"), s.header(), s, legacy);
  const gb::Graph loaded = gb::Graph::load(path("legacy.bgbs"));
  EXPECT_EQ(loaded.formats() & gb::kBitFormats, gb::kBitFormats);
  EXPECT_EQ(&loaded.packed_t(), &loaded.packed());
  EXPECT_EQ(algo::bfs(ctx, loaded, {vidx_t{3}}).levels, levels);
  loaded.save(path("resaved.bgbs"), gb::kBitFormats);
  EXPECT_EQ(slurp(p), slurp(path("resaved.bgbs")));

  // A B2SR transpose persisted without A's trio stands in for it.
  std::vector<std::pair<SectionId, SectionId>> t_only = {
      {SectionId::kCsrRowptr, SectionId::kCsrRowptr},
      {SectionId::kCsrColind, SectionId::kCsrColind},
      {SectionId::kB2srTRowptr, SectionId::kB2srRowptr},
      {SectionId::kB2srTColind, SectionId::kB2srColind},
      {SectionId::kB2srTBits, SectionId::kB2srBits}};
  write_sections(path("t-only.bgbs"), s.header(), s, t_only);
  const gb::Graph t_loaded = gb::Graph::load(path("t-only.bgbs"));
  EXPECT_NE(t_loaded.formats() & gb::kFmtB2sr, 0u);
  EXPECT_EQ(algo::bfs(ctx, t_loaded, {vidx_t{3}}).levels, levels);

  // L's valid CSR and B2SR in place of A's transposes.
  auto csr_lie = own_sections(s);
  csr_lie.emplace_back(SectionId::kCsrTRowptr, SectionId::kLowerRowptr);
  csr_lie.emplace_back(SectionId::kCsrTColind, SectionId::kLowerColind);
  write_sections(path("csr-lie.bgbs"), s.header(), s, csr_lie);
  expect_invalid_structure(path("csr-lie.bgbs"), "CSR transpose lie");
  auto b2sr_lie = own_sections(s);
  b2sr_lie.emplace_back(SectionId::kB2srTRowptr, SectionId::kB2srLowerRowptr);
  b2sr_lie.emplace_back(SectionId::kB2srTColind, SectionId::kB2srLowerColind);
  b2sr_lie.emplace_back(SectionId::kB2srTBits, SectionId::kB2srLowerBits);
  write_sections(path("b2sr-lie.bgbs"), s.header(), s, b2sr_lie);
  expect_invalid_structure(path("b2sr-lie.bgbs"), "B2SR transpose lie");
}

TEST_F(SnapshotTest, DirectedSnapshotTransposeIsProven) {
  gb::GraphOptions directed;
  directed.symmetrize = false;
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(8, 1500, 5), directed);
  const std::string p = path("directed.bgbs");
  g.save(p, gb::kBitFormats);
  const snap::Snapshot s = snap::Snapshot::read_file(p);
  ASSERT_TRUE(s.has(SectionId::kCsrTColind));
  ASSERT_TRUE(s.has(SectionId::kB2srTBits));

  // A directed load keeps a transpose of its own.
  const gb::Graph loaded = gb::Graph::load(p);
  EXPECT_NE(&loaded.adjacency_t(), &loaded.adjacency());
  EXPECT_EQ(loaded.adjacency_t().colind, g.adjacency_t().colind);

  // Every transposed section replaced by A's, each CRC valid.
  std::vector<std::pair<SectionId, SectionId>> lie;
  for (const auto& sec : s.sections()) {
    SectionId from = sec.id;
    switch (sec.id) {
      case SectionId::kCsrTRowptr: from = SectionId::kCsrRowptr; break;
      case SectionId::kCsrTColind: from = SectionId::kCsrColind; break;
      case SectionId::kB2srTRowptr: from = SectionId::kB2srRowptr; break;
      case SectionId::kB2srTColind: from = SectionId::kB2srColind; break;
      case SectionId::kB2srTBits: from = SectionId::kB2srBits; break;
      default: break;
    }
    lie.emplace_back(sec.id, from);
  }
  write_sections(path("transpose-lie.bgbs"), s.header(), s, lie);
  expect_invalid_structure(path("transpose-lie.bgbs"),
                           "A's sections as the transpose");

  // The symmetrized flag over the directed adjacency: Aᵀ would alias A.
  snap::SnapshotHeader h = s.header();
  h.flags |= snap::kFlagSymmetrized;
  write_sections(path("flag-lie.bgbs"), h, s, own_sections(s));
  expect_invalid_structure(path("flag-lie.bgbs"), "symmetrized flag lie");
}

TEST_F(SnapshotTest, FingerprintKeysContentNotConstructionPath) {
  const Csr& a = test::small_matrix(3).second;
  const gb::Graph g1 = gb::Graph::from_csr(a);
  const gb::Graph g2 = gb::Graph::from_csr(a);
  EXPECT_EQ(g1.fingerprint(), g2.fingerprint());
  const gb::Graph other = gb::Graph::from_csr(test::small_matrix(5).second);
  EXPECT_NE(g1.fingerprint(), other.fingerprint());
}

TEST_F(SnapshotTest, LoadRejectsMissingFile) {
  try {
    (void)gb::Graph::load(path("nope.bgbs"));
    FAIL() << "load of a missing file did not throw";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kIo);
  }
}

// ---------------------------------------------------------------------
// Crash consistency under injected I/O faults
// ---------------------------------------------------------------------

TEST_F(SnapshotTest, InjectedWriteErrorLeavesOldSnapshotIntact) {
  const gb::Graph g = gb::Graph::from_csr(test::small_matrix(3).second);
  const std::string p = path("g.bgbs");
  g.save(p);
  const auto good = slurp(p);

  // Every possible failing write index: the durable file must survive
  // the ENOSPC analog at any point in the stream.
  for (std::uint64_t at = 1;; ++at) {
    FaultPlan plan;
    plan.io_error_after = at;
    FaultInjector fault(plan);
    try {
      g.save(p, gb::kBitFormats, &fault);
      break;  // `at` is beyond the write count: the save succeeded
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.kind(), SnapshotError::Kind::kIo);
    }
    EXPECT_EQ(slurp(p), good) << "old snapshot damaged by failed write " << at;
    EXPECT_FALSE(fs::exists(p + ".tmp"))
        << "clean failure must not leave a temp file";
    ASSERT_LT(at, 1000u) << "fault never went off";
  }
  EXPECT_EQ(slurp(p), good);
}

TEST_F(SnapshotTest, ShortWriteCrashLeavesTornTempAndIntactSnapshot) {
  const gb::Graph g = gb::Graph::from_csr(test::small_matrix(3).second);
  const std::string p = path("g.bgbs");
  g.save(p);
  const auto good = slurp(p);

  FaultPlan plan;
  plan.io_short_write_after = 3;  // die mid-file, after some bytes landed
  FaultInjector fault(plan);
  try {
    g.save(p, gb::kBitFormats, &fault);
    FAIL() << "simulated crash did not surface";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kIo);
  }
  // The crash left its torn temp file (a real crash would), and the
  // durably renamed snapshot is untouched.
  EXPECT_TRUE(fs::exists(p + ".tmp"));
  EXPECT_EQ(slurp(p), good);
  // The torn temp is not loadable — recovery ignores it by name, and
  // even loading it by hand fails the container checks.
  EXPECT_THROW((void)gb::Graph::load(p + ".tmp"), SnapshotError);
  // The original still loads.
  EXPECT_EQ(gb::Graph::load(p).fingerprint(), g.fingerprint());
}

TEST_F(SnapshotTest, InFlightBitFlipIsCaughtAtLoad) {
  const gb::Graph g = gb::Graph::from_csr(test::small_matrix(3).second);
  // Flip one bit inside some write: the write "succeeds", the CRCs (or
  // the structural validators) catch it at load time.  Sweep the first
  // several writes so header, section headers, and payloads all get hit.
  for (std::uint64_t at = 1; at <= 8; ++at) {
    const std::string p = path("flip" + std::to_string(at) + ".bgbs");
    FaultPlan plan;
    plan.io_bit_flip_after = at;
    plan.seed = at * 1337;
    FaultInjector fault(plan);
    g.save(p, gb::kBitFormats, &fault);
    if (fault.faults_thrown() == 0) break;  // past the last write
    EXPECT_THROW((void)gb::Graph::load(p), SnapshotError) << "write " << at;
  }
}

// ---------------------------------------------------------------------
// Registry durability: save_all / recover / dedup
// ---------------------------------------------------------------------

void fill_registry(serving::GraphRegistry& reg) {
  reg.add("alpha", gb::Graph::from_csr(test::small_matrix(2).second));
  reg.add("beta", gb::Graph::from_csr(test::small_matrix(3).second));
  reg.add("gamma twin", gb::Graph::from_csr(test::small_matrix(2).second));
}

TEST_F(SnapshotTest, RegistrySaveAllRecoverRoundtrip) {
  serving::GraphRegistry reg;
  fill_registry(reg);
  const std::uint64_t alpha_fp =
      reg.lookup("alpha")->graph().fingerprint();
  reg.save_all(dir_.string());
  // alpha and "gamma twin" share content, so only two snapshot files.
  std::size_t snapshots = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    snapshots += (e.path().extension() == ".bgbs") ? 1 : 0;
  }
  EXPECT_EQ(snapshots, 2u);

  serving::GraphRegistry fresh;
  const auto report = fresh.recover(dir_.string());
  EXPECT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.recovered(), 3u);
  EXPECT_EQ(report.quarantined(), 0u);
  EXPECT_EQ(fresh.size(), 3u);
  ASSERT_NE(fresh.lookup("gamma twin"), nullptr);  // spaces survive
  EXPECT_EQ(fresh.lookup("alpha")->graph().fingerprint(), alpha_fp);
  // Recovered graphs come back prewarmed.
  EXPECT_EQ(fresh.lookup("beta")->graph().formats() & gb::kBitFormats,
            gb::kBitFormats);
  EXPECT_EQ(fresh.recovered_count(), 3u);
  EXPECT_EQ(fresh.quarantined_count(), 0u);
}

TEST_F(SnapshotTest, RecoverServesBitIdenticalQueries) {
  serving::GraphRegistry reg;
  fill_registry(reg);
  const Context ctx = Context{}.with_threads(1);
  const auto before =
      algo::bfs(ctx, reg.lookup("beta")->graph(), {vidx_t{5}}).levels;
  reg.save_all(dir_.string());

  serving::GraphRegistry fresh;
  (void)fresh.recover(dir_.string());
  const auto after =
      algo::bfs(ctx, fresh.lookup("beta")->graph(), {vidx_t{5}}).levels;
  EXPECT_EQ(before, after);
}

TEST_F(SnapshotTest, RecoverQuarantinesCorruptionWithoutFailingOthers) {
  serving::GraphRegistry reg;
  fill_registry(reg);
  reg.save_all(dir_.string());

  // Corrupt beta's snapshot (flip one payload byte) and delete nothing.
  const std::uint64_t beta_fp = reg.lookup("beta")->graph().fingerprint();
  char fp_hex[17];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                static_cast<unsigned long long>(beta_fp));
  const std::string beta_file =
      (dir_ / ("snap-" + std::string(fp_hex) + ".bgbs")).string();
  auto bytes = slurp(beta_file);
  ASSERT_GT(bytes.size(), 100u);
  bytes[90] = static_cast<char>(bytes[90] ^ 0x40);
  std::ofstream(beta_file, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  serving::GraphRegistry fresh;
  const auto report = fresh.recover(dir_.string());
  EXPECT_EQ(report.entries.size(), 3u);
  EXPECT_EQ(report.recovered(), 2u);
  EXPECT_EQ(report.quarantined(), 1u);
  EXPECT_EQ(fresh.lookup("beta"), nullptr);
  EXPECT_NE(fresh.lookup("alpha"), nullptr);
  EXPECT_NE(fresh.lookup("gamma twin"), nullptr);
  for (const auto& e : report.entries) {
    if (e.name == "beta") {
      EXPECT_EQ(e.status, serving::RecoveryStatus::kQuarantined);
      EXPECT_FALSE(e.error.empty());
    } else {
      EXPECT_EQ(e.status, serving::RecoveryStatus::kRecovered);
    }
  }
  // The quarantined file is left in place for forensics.
  EXPECT_TRUE(fs::exists(beta_file));
}

TEST_F(SnapshotTest, NonSquareSnapshotFailsLoadAndIsQuarantined) {
  // A CRC-clean snapshot whose 6 x 2 CSR validates on its own: only the
  // square-adjacency check stands between it and the algorithms.
  Coo c{6, 2, {}, {}, {}};
  c.push(0, 1);
  c.push(3, 0);
  c.push(5, 1);
  const Csr wide = coo_to_csr(c);
  ASSERT_TRUE(wide.validate());
  snap::SnapshotHeader h;
  h.nrows = wide.nrows;
  h.ncols = wide.ncols;
  h.nnz = wide.nnz();
  h.fingerprint = snap::csr_fingerprint(wide);
  snap::SnapshotWriter w(h);
  w.add_vector(snap::SectionId::kCsrRowptr, wide.rowptr);
  w.add_vector(snap::SectionId::kCsrColind, wide.colind);
  const std::string file = "snap-wide.bgbs";
  w.write_file(path(file));
  try {
    (void)gb::Graph::load(path(file));
    FAIL() << "a 6 x 2 adjacency loaded";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kInvalidStructure) << e.what();
  }

  // Named in a manifest beside sound entries, it is quarantined and the
  // others still recover.
  serving::GraphRegistry reg;
  fill_registry(reg);
  reg.save_all(dir_.string());
  char fp_hex[17];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                static_cast<unsigned long long>(h.fingerprint));
  std::ofstream(path(serving::GraphRegistry::kManifestFile), std::ios::app)
      << file << ' ' << fp_hex << " wide\n";

  serving::GraphRegistry fresh;
  const auto report = fresh.recover(dir_.string());
  EXPECT_EQ(report.recovered(), 3u);
  EXPECT_EQ(report.quarantined(), 1u);
  EXPECT_EQ(fresh.lookup("wide"), nullptr);
  EXPECT_NE(fresh.lookup("alpha"), nullptr);
}

TEST_F(SnapshotTest, OvershootingRowptrFailsStructurally) {
  // CRC-clean, and row 0 claims 100 entries of a 1-entry colind before
  // row 1 falls back: validation must reject it without reading past
  // colind (the sanitizer lanes would abort on such a read).
  Csr bad;
  bad.nrows = 2;
  bad.ncols = 2;
  bad.rowptr = {0, 100, 1};
  bad.colind = {0};
  snap::SnapshotHeader h;
  h.nrows = bad.nrows;
  h.ncols = bad.ncols;
  h.nnz = bad.nnz();
  h.fingerprint = snap::csr_fingerprint(bad);
  snap::SnapshotWriter w(h);
  w.add_vector(SectionId::kCsrRowptr, bad.rowptr);
  w.add_vector(SectionId::kCsrColind, bad.colind);
  w.write_file(path("overshoot.bgbs"));
  expect_invalid_structure(path("overshoot.bgbs"), "overshooting rowptr");
}

TEST_F(SnapshotTest, RecoverReportsMissingSnapshotFiles) {
  serving::GraphRegistry reg;
  fill_registry(reg);
  reg.save_all(dir_.string());
  const std::uint64_t beta_fp = reg.lookup("beta")->graph().fingerprint();
  char fp_hex[17];
  std::snprintf(fp_hex, sizeof(fp_hex), "%016llx",
                static_cast<unsigned long long>(beta_fp));
  fs::remove(dir_ / ("snap-" + std::string(fp_hex) + ".bgbs"));

  serving::GraphRegistry fresh;
  const auto report = fresh.recover(dir_.string());
  EXPECT_EQ(report.missing(), 1u);
  EXPECT_EQ(report.recovered(), 2u);
  EXPECT_EQ(fresh.lookup("beta"), nullptr);
}

TEST_F(SnapshotTest, RecoverWithNoManifestIsEmpty) {
  serving::GraphRegistry fresh;
  const auto report = fresh.recover(dir_.string());
  EXPECT_TRUE(report.entries.empty());
  EXPECT_EQ(fresh.size(), 0u);
}

TEST_F(SnapshotTest, RecoverAfterMidSaveCrashRestoresExactlyTheDurableWorld) {
  // Crash matrix: generation one (alpha) saves cleanly, then generation
  // two (alpha + beta) crashes at EVERY possible physical write — mid
  // snapshot, mid section, mid manifest.  After each crash, recover()
  // must see a consistent world: at minimum the durably-renamed
  // generation-one state, never a quarantine, never a torn read.
  serving::GraphRegistry gen1;
  gen1.add("alpha", gb::Graph::from_csr(test::small_matrix(2).second));
  serving::GraphRegistry gen2;
  gen2.add("alpha", gb::Graph::from_csr(test::small_matrix(2).second));
  gen2.add("beta", gb::Graph::from_csr(test::small_matrix(3).second));

  std::size_t crash_points = 0;
  for (std::uint64_t at = 1; at < 1000; ++at) {
    const fs::path sub = dir_ / ("crash" + std::to_string(at));
    fs::create_directories(sub);
    gen1.save_all(sub.string());

    FaultPlan plan;
    plan.io_short_write_after = at;
    FaultInjector fault(plan);
    bool crashed = false;
    try {
      gen2.save_all(sub.string(), gb::kBitFormats, &fault);
    } catch (const SnapshotError&) {
      crashed = true;
      ++crash_points;
    }

    serving::GraphRegistry fresh;
    const auto report = fresh.recover(sub.string());
    EXPECT_EQ(report.quarantined(), 0u) << "crash at write " << at;
    EXPECT_EQ(report.missing(), 0u) << "crash at write " << at;
    // alpha was durable before the crash; it must always come back.
    ASSERT_NE(fresh.lookup("alpha"), nullptr) << "crash at write " << at;
    if (crashed) {
      // The torn save published nothing beyond already-renamed files:
      // whatever the manifest names, it loads.
      EXPECT_GE(report.recovered(), 1u);
    } else {
      // Past the last write: the full generation-two state landed.
      EXPECT_EQ(report.recovered(), 2u);
      EXPECT_NE(fresh.lookup("beta"), nullptr);
      break;
    }
  }
  EXPECT_GT(crash_points, 10u) << "the sweep never exercised real crashes";
}

TEST_F(SnapshotTest, SaveAllRejectsNewlineNames) {
  serving::GraphRegistry reg;
  reg.add("bad\nname", gb::Graph::from_csr(test::small_matrix(2).second));
  try {
    reg.save_all(dir_.string());
    FAIL() << "newline name must not be manifested";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.kind(), SnapshotError::Kind::kMalformed);
  }
}

TEST_F(SnapshotTest, ReAddDedupReusesPrewarmedGraph) {
  serving::GraphRegistry reg;
  const Csr& a = test::small_matrix(3).second;
  const auto slot1 = reg.add("g", gb::Graph::from_csr(a));
  EXPECT_EQ(reg.dedup_hits(), 0u);

  // Same name, same content: the new slot must share the SAME Graph
  // object (no re-prewarm) under a NEW generation.
  const auto slot2 = reg.add("g", gb::Graph::from_csr(a));
  EXPECT_EQ(reg.dedup_hits(), 1u);
  EXPECT_GT(slot2->generation(), slot1->generation());
  EXPECT_EQ(&slot2->graph(), &slot1->graph());

  // Different content under the same name: a real replacement.
  const auto slot3 =
      reg.add("g", gb::Graph::from_csr(test::small_matrix(5).second));
  EXPECT_EQ(reg.dedup_hits(), 1u);
  EXPECT_NE(&slot3->graph(), &slot1->graph());

  // Same content as slot3 but wanting MORE formats than it has: the
  // dedup must not hand back an under-warmed graph.
  const auto slot4 =
      reg.add("g", gb::Graph::from_csr(test::small_matrix(5).second),
              gb::kAllFormats);
  EXPECT_EQ(reg.dedup_hits(), 1u);
  EXPECT_EQ(slot4->graph().formats() & gb::kAllFormats, gb::kAllFormats);
}

TEST_F(SnapshotTest, ServerStatsSurfaceRegistryDurabilityCounters) {
  serving::GraphRegistry reg;
  fill_registry(reg);
  reg.save_all(dir_.string());
  reg.add("alpha", gb::Graph::from_csr(test::small_matrix(2).second));
  (void)reg.recover(dir_.string());  // re-adds dedup against live slots

  serving::Server server(reg, [] {
    serving::ServerOptions o;
    o.workers = 1;
    return o;
  }());
  const auto st = server.stats();
  EXPECT_EQ(st.registry_dedup_hits, reg.dedup_hits());
  EXPECT_EQ(st.graphs_recovered, reg.recovered_count());
  EXPECT_EQ(st.graphs_quarantined, reg.quarantined_count());
  EXPECT_GE(st.registry_dedup_hits, 1u);
  EXPECT_EQ(st.graphs_recovered, 3u);
  server.shutdown();

  // A fresh registry of one: the counters are defined (zero), not
  // garbage.
  serving::GraphRegistry fresh;
  fresh.add("g", gb::Graph::from_csr(test::small_matrix(2).second));
  serving::Server single(fresh);
  EXPECT_EQ(single.stats().registry_dedup_hits, 0u);
  EXPECT_EQ(single.stats().graphs_recovered, 0u);
  single.shutdown();
}

}  // namespace
}  // namespace bitgb
