// Durable snapshot suite: crc32c vectors and SW/HW parity, the
// save/load roundtrip over the oracle corpus (bit-identical files and
// prewarmed caches), crash-consistency under the injected I/O faults,
// registry save_all/recover (including quarantine), and the
// fingerprint-keyed re-add dedup.
#include "algorithms/bfs.hpp"
#include "graphblas/graph.hpp"
#include "platform/crc32c.hpp"
#include "platform/fault_injector.hpp"
#include "serving/server.hpp"
#include "sparse/snapshot.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
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
  for (const auto& [name, a] : test::small_matrices()) {
    const gb::Graph g = gb::Graph::from_csr(a);
    const std::string p = path(name + ".bgbs");
    g.save(p, gb::kBitFormats);

    const gb::Graph loaded = gb::Graph::load(p);
    EXPECT_EQ(loaded.num_vertices(), g.num_vertices()) << name;
    EXPECT_EQ(loaded.num_edges(), g.num_edges()) << name;
    EXPECT_EQ(loaded.fingerprint(), g.fingerprint()) << name;
    EXPECT_EQ(loaded.adjacency().rowptr, g.adjacency().rowptr) << name;
    EXPECT_EQ(loaded.adjacency().colind, g.adjacency().colind) << name;

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
  // Ask for everything: the writer must strip the unit-CSR bits.
  g.save(p, gb::kAllFormats);
  const gb::Graph loaded = gb::Graph::load(p);
  EXPECT_EQ(loaded.formats() & (gb::kFmtUnitCsr | gb::kFmtUnitCsrT), 0u);
  // They still materialize lazily on demand.
  EXPECT_EQ(loaded.unit_adjacency().val.size(),
            static_cast<std::size_t>(loaded.num_edges()));
  EXPECT_NE(loaded.formats() & gb::kFmtUnitCsr, 0u);
}

TEST_F(SnapshotTest, CsrOnlySnapshotRewarmsLazily) {
  const gb::Graph g = gb::Graph::from_csr(test::small_matrix(4).second);
  const std::string p = path("csr-only.bgbs");
  g.save(p, gb::kFmtCsr);  // nothing but the canonical adjacency
  const gb::Graph loaded = gb::Graph::load(p);
  EXPECT_EQ(loaded.formats(), gb::kFmtCsr);
  // Derived formats still build on demand and agree with the original.
  EXPECT_EQ(loaded.packed().nnz(), g.num_edges());
  EXPECT_EQ(loaded.degrees(), g.degrees());
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
