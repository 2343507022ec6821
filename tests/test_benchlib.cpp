// Bench-library tests: corpus construction and figure/table rendering.
#include "benchlib/corpus.hpp"
#include "benchlib/reporting.hpp"
#include "platform/context.hpp"
#include "platform/device_profile.hpp"
#include "platform/parallel.hpp"
#include "platform/timer.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace bitgb::bench {
namespace {

TEST(Corpus, SmokeScaleBuildsValidMatrices) {
  const auto corpus = full_corpus(CorpusScale::kSmoke);
  EXPECT_EQ(static_cast<std::size_t>(corpus_size(CorpusScale::kSmoke)),
            corpus.size());
  for (const auto& e : corpus) {
    EXPECT_TRUE(e.matrix.validate()) << e.name;
    EXPECT_EQ(e.matrix.nrows, e.matrix.ncols) << e.name;  // square
    EXPECT_TRUE(e.matrix.is_binary()) << e.name;
  }
}

TEST(Corpus, FullScaleIs521Matrices) {
  EXPECT_EQ(521, corpus_size(CorpusScale::kFull));
}

TEST(Corpus, CategoryMixFollowsTableV) {
  const auto corpus = full_corpus(CorpusScale::kSmoke);
  std::map<Pattern, int> counts;
  for (const auto& e : corpus) ++counts[e.category];
  // Diagonal is the largest share (45.87 of 151.43), dot second.
  EXPECT_GE(counts[Pattern::kDiagonal], counts[Pattern::kDot]);
  EXPECT_GE(counts[Pattern::kDot], counts[Pattern::kRoad]);
  EXPECT_GT(counts[Pattern::kHybrid], 0);
  EXPECT_GT(counts[Pattern::kStripe], 0);
}

TEST(Corpus, DeterministicAcrossCalls) {
  const auto a = full_corpus(CorpusScale::kSmoke);
  const auto b = full_corpus(CorpusScale::kSmoke);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].matrix.colind, b[i].matrix.colind);
  }
}

TEST(Corpus, SmokeMatrixNamesAreUnique) {
  // named_matrix() lookups and per-row table rendering both assume the
  // corpus has no duplicate names.
  const auto corpus = full_corpus(CorpusScale::kSmoke);
  std::map<std::string, int> counts;
  for (const auto& e : corpus) ++counts[e.name];
  for (const auto& [name, n] : counts) {
    EXPECT_EQ(1, n) << "duplicate corpus name " << name;
  }
}

TEST(Corpus, NamedMatricesExistAndAreExactWhereDefined) {
  // mycielskianN analogs are the *exact* graphs (deterministic
  // construction), so their sizes match SuiteSparse.
  EXPECT_EQ(383, named_matrix("mycielskian9").matrix.nrows);
  EXPECT_EQ(767, named_matrix("mycielskian10").matrix.nrows);
  EXPECT_EQ(3071, named_matrix("mycielskian12").matrix.nrows);
  // ash292 keeps the original's size.
  EXPECT_EQ(292, named_matrix("ash292").matrix.nrows);
  EXPECT_THROW(named_matrix("no_such_matrix"), std::out_of_range);
}

TEST(Corpus, TableRostersMatchPaper) {
  EXPECT_EQ(16u, table7_matrices().size());
  EXPECT_EQ(16u, table9_matrices().size());
  EXPECT_EQ(5u, figure3_matrices().size());
  EXPECT_EQ("delaunay_n14", table7_matrices().front().name);
  EXPECT_EQ("G47", figure3_matrices().front().name);
}

TEST(Reporting, DensityBuckets) {
  EXPECT_EQ(-7, density_bucket(0.0));
  EXPECT_EQ(-7, density_bucket(1e-9));  // clamped
  EXPECT_EQ(-4, density_bucket(5e-4));
  EXPECT_EQ(-1, density_bucket(0.3));
  EXPECT_EQ("E-3", bucket_label(-3));
}

TEST(Reporting, Geomean) {
  EXPECT_DOUBLE_EQ(0.0, geomean({}));
  EXPECT_NEAR(2.0, geomean({1.0, 4.0}), 1e-12);
  EXPECT_NEAR(3.0, geomean({3.0, 3.0, 3.0}), 1e-12);
}

TEST(Reporting, PercentileInterpolatesOrderStatistics) {
  EXPECT_DOUBLE_EQ(0.0, percentile({}, 50.0));
  EXPECT_DOUBLE_EQ(7.0, percentile({7.0}, 99.9));
  // Unsorted input; {1..4}: p50 sits halfway between 2 and 3.
  EXPECT_NEAR(2.5, percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 1e-12);
  EXPECT_NEAR(1.0, percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1e-12);
  EXPECT_NEAR(4.0, percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 1e-12);
  // 1..1000: p99 = 990.01, p999 = 999.001 (linear interpolation).
  std::vector<double> xs(1000);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(1000 - i);
  }
  EXPECT_NEAR(990.01, percentile(xs, 99.0), 1e-9);
  EXPECT_NEAR(999.001, percentile(xs, 99.9), 1e-9);
}

TEST(Reporting, SpeedupString) {
  EXPECT_EQ("3.0x", speedup_str(3.0, 1.0));
  EXPECT_EQ("152x", speedup_str(152.0, 1.0));
  EXPECT_EQ("0.5x", speedup_str(1.0, 2.0));
  EXPECT_EQ("-", speedup_str(1.0, 0.0));
}

TEST(Reporting, SweepFigureRendersAllSeries) {
  std::vector<SweepPoint> pts;
  for (const int dim : {4, 8, 16, 32}) {
    pts.push_back({"m1", 1e-3, dim, 2.0});
    pts.push_back({"m2", 1e-5, dim, 4.0});
  }
  std::ostringstream os;
  print_sweep_figure(os, "test figure", pts);
  const std::string s = os.str();
  EXPECT_NE(std::string::npos, s.find("4x4"));
  EXPECT_NE(std::string::npos, s.find("32x32"));
  EXPECT_NE(std::string::npos, s.find("E-3"));
  EXPECT_NE(std::string::npos, s.find("2.00"));
}

TEST(Reporting, AlgoTableRendersRows) {
  std::vector<AlgoRow> rows = {{"m", 2.0, 1.0, 1.5, 0.5}};
  std::ostringstream os;
  print_algo_table(os, "Table VII analog", "BFS", rows);
  const std::string s = os.str();
  EXPECT_NE(std::string::npos, s.find("algorithm"));
  EXPECT_NE(std::string::npos, s.find("kernel"));
  EXPECT_NE(std::string::npos, s.find("2.0x"));  // 2.0/1.0
  EXPECT_NE(std::string::npos, s.find("3.0x"));  // 1.5/0.5
}

// The trajectory writers must fail loudly: a bench that cannot write
// its JSON has not produced its artifact and must not exit 0.
TEST(Reporting, TrajectoryWritersThrowWhenPathIsUnwritable) {
  const std::string dir = ::testing::TempDir() + "bitgb-no-such-dir";
  ASSERT_FALSE(std::filesystem::exists(dir));
  const std::string kernels = dir + "/BENCH_kernels.json";
  EXPECT_THROW(write_kernel_bench_json(kernels, "avx2", 1, "fixture",
                                       {{"bmv_bin_bin_bin", 8, 0.5, 1.0, 1}}),
               std::runtime_error);
  const std::string serving = dir + "/BENCH_serving.json";
  EXPECT_THROW(write_serving_bench_json(serving, "g", 1, 1, 1, true, {}, {},
                                        {}, {}),
               std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// The saturation ablation is each mode's median plus the quartile
// spread of the per-round speedups, so a noisy or order-biased round
// widens the spread instead of moving the speedup.
TEST(Reporting, SaturationCellIsMediansAndSpreadOfRounds) {
  const auto rounds = [](const char* mode, std::vector<double> qps) {
    std::vector<ServingSaturation> out;
    for (const double q : qps) out.push_back({mode, 64, q, q / 100});
    return out;
  };
  // Per-round speedups: 2, 3, 4, 5.
  const ServingSaturationAblation cell = summarize_saturation(
      rounds("unbatched", {100, 100, 100, 100}),
      rounds("batched", {200, 300, 400, 500}));
  EXPECT_EQ(4, cell.rounds);
  EXPECT_EQ("unbatched", cell.unbatched.mode);
  EXPECT_EQ("batched", cell.batched.mode);
  EXPECT_EQ(64, cell.batched.queries);
  EXPECT_DOUBLE_EQ(100.0, cell.unbatched.qps);
  EXPECT_DOUBLE_EQ(350.0, cell.batched.qps);
  EXPECT_DOUBLE_EQ(3.5, cell.batched.mean_wave);
  EXPECT_DOUBLE_EQ(3.5, cell.batched_speedup);
  EXPECT_DOUBLE_EQ(1.5, cell.batched_speedup_spread);
  EXPECT_THROW((void)summarize_saturation(rounds("unbatched", {1.0}), {}),
               std::invalid_argument);
}

// v8 keys: the saturation rounds and speedup spread, and a wave-width
// histogram on every open-loop cell; v8 drops the cancellation cell.
TEST(Reporting, ServingJsonCarriesV8Keys) {
  const std::string path = ::testing::TempDir() + "bitgb-serving-v8.json";
  ServingRatePoint pt;
  pt.mode = "batched";
  pt.wave_width_hist = {5, 0, 2};
  write_serving_bench_json(path, "g", 1, 1, 1, true,
                           summarize_saturation(
                               {{"unbatched", 8, 10.0, 1.0}},
                               {{"batched", 8, 30.0, 8.0}}),
                           {pt}, {}, {});
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  for (const char* key :
       {"\"schema\": \"bitgb-serving-bench-v8\"", "\"saturation_rounds\": 1",
        "\"saturation_batched_speedup\": 3",
        "\"saturation_batched_speedup_spread\": 0",
        "\"wave_width_hist\": [5, 0, 2]"}) {
    EXPECT_NE(std::string::npos, json.find(key)) << key;
  }
  EXPECT_EQ(std::string::npos, json.find("cancellation_overhead"));
  std::filesystem::remove(path);
}

TEST(DeviceProfile, ProfilesDescribeContexts) {
  const auto pascal = pascal_analog();
  const auto volta = volta_analog();
  EXPECT_EQ(1, pascal.num_threads);
  EXPECT_GE(volta.num_threads, 1);
  // A profile is descriptor material: context_for() carries its width
  // into a Context without touching any process state.
  KernelTimeSink sink;
  const Context ctx = context_for(pascal, &sink);
  EXPECT_EQ(1, ctx.threads);
  EXPECT_EQ(&sink, ctx.timer);
  EXPECT_EQ(volta.num_threads, context_for(volta).threads);
}

TEST(Timer, SplitTimingMeasuresBothBuckets) {
  KernelTimeSink sink;
  const auto t = time_split_ms(
      sink,
      [&sink] {
        KernelTimerScope scope(&sink);
        volatile double x = 0;
        for (int i = 0; i < 100000; ++i) x = x + 1.0;
      },
      2);
  EXPECT_GT(t.algorithm_ms, 0.0);
  EXPECT_GT(t.kernel_ms, 0.0);
  EXPECT_LE(t.kernel_ms, t.algorithm_ms * 1.5);
}

}  // namespace
}  // namespace bitgb::bench
