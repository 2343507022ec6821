// bench_e2e — the seeded end-to-end benchmark.
//
//   bench_e2e                       quick smoke: every workload for about
//                                   a second on small graphs, same
//                                   verifiers; non-zero exit on mismatch
//   bench_e2e --self-test           checks the benchmark's own rules
//   bench_e2e --workload W --seed N [--seconds S] [--json F] [--trace F]
//
// Without --trace the run prints the end-to-end metrics.  With --trace
// it serves each traffic window twice, untraced then traced, prints the
// per-layer metrics and the tracing overhead, and writes the spans as
// one Chrome trace-event file.  README.md defines every workload and
// metric.
#include "e2e.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

namespace e2e {
namespace {

namespace fs = std::filesystem;
namespace gb = bitgb::gb;
namespace serving = bitgb::serving;

constexpr const char* kWorkloads[] = {"bfs_light", "bfs_backlog", "algo_offline"};

/// A run's traffic is served in kSlices slices, each a phase of the
/// host-speed calibration; before every kSlicesPerRound-th slice, one
/// offline round runs every (algorithm, graph) cell.  Spreading both
/// across the run keeps any one stretch of the host's speed from
/// deciding a metric.
constexpr int kSlices = 12;
constexpr int kSlicesPerRound = 3;
/// Set-up is timed over this many builds; setup_s is their median.
constexpr int kBuilds = 3;

/// Latency limits for goodput_qps: the single-query class's for
/// bfs_light and algo_offline, the request deadline for bfs_backlog.
constexpr double kBfsLimitMs = 25.0;
constexpr double kBacklogLimitMs = 1000.0;

/// bfs_light's arrival rate: about a sixth of what its three workers
/// answer one query at a time (~8 ms per rmat_s16 BFS on a 4-vCPU
/// x86-64 host), so a request almost never finds every worker busy and
/// the latency tail stays on the single-query path.  Multi-request waves
/// pay the full 64-lane msbfs cost (~60 ms); at 75 q/s, where they
/// neared 1% of requests on a slow host, p99 flipped between the two
/// paths from run to run.
constexpr double kLightRateQps = 50.0;

int capped_workers(int wanted) {
  // Workers plus the generator never exceed the hardware width.
  const int hw = static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  return std::clamp(wanted, 1, hw - 1);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The headline numbers of a workload's traffic, every time divided by
/// the host slowdown of its phase.
struct Window {
  std::vector<double> latencies_ms;  ///< kOk only
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  double window_s = 0.0;

  /// An open-loop slice lasts as long as its schedule, so only a closed
  /// loop's window is rescaled.
  void add(const TrafficResult& t, double slowdown, bool open_loop) {
    window_s += open_loop ? t.window_s : t.window_s / slowdown;
    for (const RequestRecord& r : t.records) {
      ++attempted;
      if (!r.ok()) continue;
      ++ok;
      latencies_ms.push_back(r.latency_ms() / slowdown);
    }
  }

  /// Direct solves, already rescaled: the window is their own time.
  void add_direct(const std::vector<double>& ms) {
    for (const double l : ms) {
      ++attempted;
      ++ok;
      latencies_ms.push_back(l);
      window_s += l / 1000.0;
    }
  }
};

struct WorkloadRun {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool quick = false;
  std::string trace_path;  ///< empty = untraced
  fs::path workdir;
};

void add_serving_layer(const TrafficResult& t, int workers, double add_ms,
                       Report& report) {
  auto& m = report.per_layer;
  std::vector<double> submit_us, queue_ms, exec_ms, width, lag_ms;
  double wave_exec_ms = 0.0;
  std::uint64_t shed = 0, failed = 0;
  for (const RequestRecord& r : t.records) {
    submit_us.push_back(r.submit_us);
    lag_ms.push_back(r.sent_ms - r.due_ms);
    if (r.ok()) {
      queue_ms.push_back(r.queue_ms);
      exec_ms.push_back(r.execute_ms());
      width.push_back(r.batch_width);
      wave_exec_ms += r.execute_ms() / std::max(1, r.batch_width);
    } else if (r.status == Status::kInternalError || r.status == Status::kBadGraph) {
      ++failed;
    } else {
      ++shed;
    }
  }
  double mean_width = 0.0;
  for (const double w : width) mean_width += w / static_cast<double>(width.size());

  add_metric(m, "serving.submit_us_p50", median(submit_us), "us");
  add_metric(m, "serving.submit_us_p99", tail(submit_us).value, "us");
  add_metric(m, "serving.queue_wait_ms_p50", median(queue_ms), "ms");
  add_metric(m, "serving.queue_wait_ms_p99", tail(queue_ms).value, "ms");
  add_metric(m, "serving.execute_ms_p50", median(exec_ms), "ms");
  add_metric(m, "serving.execute_ms_p99", tail(exec_ms).value, "ms");
  add_metric(m, "serving.wave_width_mean", mean_width, "count");
  add_metric(m, "serving.wave_width_p50", median(width), "count");
  add_metric(m, "serving.kernel_share",
             wave_exec_ms > 0.0 ? t.kernel_ms / wave_exec_ms : 0.0, "ratio");
  add_metric(m, "serving.worker_busy_share",
             t.window_s > 0.0 ? wave_exec_ms / (1000.0 * t.window_s * workers) : 0.0,
             "ratio");
  add_metric(m, "serving.shed", static_cast<double>(shed), "count");
  add_metric(m, "serving.failed", static_cast<double>(failed), "count");
  add_metric(m, "serving.registry_add_ms", add_ms, "ms");
  add_metric(m, "loadgen.lag_p99_ms", tail(lag_ms).value, "ms");
  add_metric(m, "loadgen.attempted", static_cast<double>(t.records.size()), "count");
}

/// The serving workloads' traffic per round (README.md says why each is
/// shaped so), and algo_offline's serving probe.
TrafficPlan traffic_plan(const std::string& w, double seconds) {
  TrafficPlan plan;
  plan.seconds = seconds;
  if (w == "algo_offline") {
    plan.open_loop = false;
    plan.outstanding = 1;
  } else if (w == "bfs_light") {
    plan.workers = capped_workers(3);
    plan.rate_qps = kLightRateQps;
  } else if (w == "bfs_backlog") {
    plan.workers = capped_workers(3);
    plan.open_loop = false;
    plan.outstanding = 192;
  }
  return plan;
}

Report run_workload(const WorkloadRun& run) {
  Report report;
  const bool traced = !run.trace_path.empty();
  const std::string& w = run.name;
  const bool serving_workload = w != "algo_offline";
  const double limit_ms = w == "bfs_backlog" ? kBacklogLimitMs : kBfsLimitMs;

  const GraphFiles files = write_inputs(graph_specs(run.quick), run.seed,
                                        run.workdir.string());
  TraceLog trace(traced);
  TraceLog untraced(false);
  HostSpeed speed;
  Setup setup = setup_graphs(files, kBuilds, speed, trace);
  const gb::Graph& served = setup.own[0];
  serving::GraphRegistry registry;
  const double add_ms = register_graph(files, setup, registry);

  // Each sampled reply against the serial oracle; every non-kOk reply
  // counts as failed.
  std::size_t verified = 0;
  const auto account = [&](const TrafficResult& t) {
    report.attempted += t.records.size();
    for (const RequestRecord& r : t.records) report.failed += r.ok() ? 0 : 1;
    for (const SampledReply& s : t.samples) {
      std::string why;
      if (!reply_matches(served, s, &why)) {
        ++report.failed;
        report.fail(why);
      }
      ++verified;
    }
  };

  // Offline rounds run every (algorithm, graph) cell to solution, each
  // cell one phase; the serving workloads run the same cells with a
  // smaller quota, so every workload reports the same metrics.  Traffic
  // slices are phases too: a fresh Server serves each, or, on
  // algo_offline, direct BFS calls run for half a slice.  A traced run
  // serves each slice twice, untraced first, for the overhead headline.
  const TrafficPlan plan = traffic_plan(w, run.seconds / kSlices);
  const double cell_round_s = run.seconds * (serving_workload ? 0.002 : 0.004);
  bitgb::KernelTimeSink sink;
  OfflineResult offline;
  Window headline, traced_window;
  TrafficResult traced_traffic;
  for (int slice = 0; slice < kSlices; ++slice) {
    if (slice % kSlicesPerRound == 0) {
      run_offline_round(setup.own, files.names, cell_round_s, speed, trace, report,
                        offline);
    }
    const std::uint64_t slice_seed = mix_seed(run.seed * kSlices + slice);
    for (int pass = 0; pass < (traced ? 2 : 1); ++pass) {
      const bool this_traced = traced && pass == 1;
      TraceLog& pass_trace = this_traced ? trace : untraced;
      Window& into = this_traced ? traced_window : headline;
      if (!serving_workload) {
        const std::vector<double> ms = run_direct_bfs(served, slice_seed, plan.seconds / 2,
                                                      speed, pass_trace, report);
        into.add_direct(ms);
        report.attempted += ms.size();
        continue;
      }
      TrafficResult t;
      const double slowdown = speed.parallel_phase([&] {
        t = run_traffic(plan, files.names[0], served, registry, slice_seed, pass_trace,
                        this_traced ? &sink : nullptr, nullptr);
      });
      into.add(t, slowdown, plan.open_loop);
      account(t);
      if (this_traced) traced_traffic.append(std::move(t));
    }
  }
  // algo_offline serves no traffic, so its traced run adds a probe
  // instead: its BFS stream, one request at a time, through a one-worker
  // server — the serving metrics then show what that layer adds over a
  // direct call.
  if (traced && !serving_workload) {
    traced_traffic = run_traffic(plan, files.names[0], served, registry,
                                 mix_seed(run.seed), trace, &sink, nullptr);
    account(traced_traffic);
  }
  report.attempted += offline.solves();

  const std::vector<double>& latencies = headline.latencies_ms;
  const auto within_limit = std::count_if(latencies.begin(), latencies.end(),
                                          [&](double l) { return l <= limit_ms; });
  const Tail p99 = tail(latencies);
  report.notes.push_back("loadgen.latency_p99_ms is p" + std::to_string(p99.rank) + " of " +
                         std::to_string(p99.samples) + " kOk samples; p90 " +
                         std::to_string(percentile(latencies, 90)) + " ms, p95 " +
                         std::to_string(percentile(latencies, 95)) + " ms");
  report.notes.push_back(std::to_string(verified) + " sampled replies verified; " +
                         std::to_string(offline.solves()) + " offline solves");
  std::string slowdowns = "host slowdown at each of " +
                          std::to_string(speed.points().size()) + " calibrations:";
  for (const double s : speed.points()) slowdowns += " " + std::to_string(s);
  report.notes.push_back(slowdowns);

  if (!traced) {
    auto& m = report.end_to_end;
    add_metric(m, "setup_s", setup.setup_s, "s");
    add_metric(m, "latency_p50_ms", median(latencies), "ms");
    add_metric(m, "goodput_qps", static_cast<double>(within_limit) / headline.window_s,
               "q/s");
    add_metric(m, "throughput_qps", static_cast<double>(headline.ok) / headline.window_s,
               "q/s");
    add_metric(m, "peak_rss_mb", peak_rss_mib(), "MiB");
    for (int a = 0; a < kNumAlgos; ++a) {
      double sum = 0.0;
      for (std::size_t i = 0; i < files.names.size(); ++i) sum += offline.median_ms(a, i);
      add_metric(m, std::string(algo_name(a)) + "_ms", sum, "ms");
    }
    return report;
  }

  add_serving_layer(traced_traffic, plan.workers, add_ms, report);
  probe_algorithms(setup.own, files.names, offline, run.seed, trace, report);
  probe_kernels(setup.own, files.names, trace, report);
  probe_snapshots(setup.own, files, trace, report);
  auto& m = report.per_layer;
  for (std::size_t i = 0; i < files.names.size(); ++i) {
    const std::string& g = files.names[i];
    add_metric(m, "graphblas.from_coo." + g + ".ms", setup.from_coo_ms[i], "ms");
    add_metric(m, "graphblas.prewarm." + g + ".ms", setup.prewarm_ms[i], "ms");
    add_metric(m, "sparse.read_matrix_market." + g + ".ms", setup.read_ms[i], "ms");
  }
  // The untraced pass's tail, rescaled like the end-to-end metrics.  A
  // per-layer metric because the tail catches the host's short bursts:
  // over ten runs its spread reached 10% on bfs_light, more than a third
  // of any regression bound worth having.
  add_metric(m, "loadgen.latency_p99_ms", p99.value, "ms");
  add_metric(m, "host.slowdown", median(speed.points()), "ratio");
  // Positive = tracing made the headline worse.  bfs_backlog's headline
  // is throughput; the others' is median latency.
  const Window& off = headline;
  const Window& on = traced_window;
  const double overhead =
      w == "bfs_backlog"
          ? 100.0 * (1.0 - (static_cast<double>(on.ok) / on.window_s) /
                               (static_cast<double>(off.ok) / off.window_s))
          : 100.0 * (median(on.latencies_ms) / median(off.latencies_ms) - 1.0);
  add_metric(m, "trace.overhead_pct", overhead, "%");
  trace.write_chrome_json(run.trace_path);
  report.notes.push_back(std::to_string(trace.size()) + " spans written to " +
                         run.trace_path);
  return report;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_metrics(std::ofstream& out, const std::vector<Metric>& metrics) {
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << "\"" << metrics[i].name
        << "\": {\"value\": " << json_number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << (metrics.empty() ? "}" : "\n  }");
}

void write_json(const std::string& path, const WorkloadRun& run,
                const Report& r) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"bench-e2e-v1\",\n  \"workload\": \"" << run.name
      << "\",\n  \"seed\": " << run.seed << ",\n  \"seconds\": "
      << json_number(run.seconds) << ",\n  \"traced\": "
      << (run.trace_path.empty() ? "false" : "true") << ",\n  \"correct\": "
      << (r.correct ? "true" : "false") << ",\n  \"attempted\": " << r.attempted
      << ",\n  \"failed\": " << r.failed << ",\n  \"end_to_end\": ";
  write_metrics(out, r.end_to_end);
  out << ",\n  \"per_layer\": ";
  write_metrics(out, r.per_layer);
  out << ",\n  \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    std::string note = r.notes[i];
    std::replace(note.begin(), note.end(), '"', '\'');
    out << (i ? ", " : "") << "\"" << note << "\"";
  }
  out << "]\n}\n";
  if (!out) throw std::runtime_error("failed writing " + path);
}

void print_report(const WorkloadRun& run, const Report& r) {
  std::printf("workload %s  seed %llu  %.1f s%s\n", run.name.c_str(),
              static_cast<unsigned long long>(run.seed), run.seconds,
              run.trace_path.empty() ? "" : "  (traced)");
  for (const auto* list : {&r.end_to_end, &r.per_layer}) {
    for (const Metric& m : *list) {
      std::printf("  %-52s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());
  std::printf("  %s: %llu attempted, %llu failed\n",
              r.correct ? "verified" : "MISMATCH",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
}

/// The scratch directory of one process, removed on every exit path.
struct Workdir {
  fs::path path = fs::current_path() / ("bench_e2e_work." + std::to_string(getpid()));
  Workdir() { fs::create_directories(path); }
  ~Workdir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  Workdir(const Workdir&) = delete;
  Workdir& operator=(const Workdir&) = delete;
};

// ---------------------------------------------------------------------
// Quick smoke and self-test
// ---------------------------------------------------------------------

int quick_smoke() {
  const Workdir dir;
  bool ok = true;
  for (const char* w : kWorkloads) {
    WorkloadRun run{w, 1, 0.8, true, "", dir.path};
    const Clock::time_point start = Clock::now();
    const Report r = run_workload(run);
    print_report(run, r);
    std::printf("  took %.2f s\n", ms_between(start, Clock::now()) / 1000.0);
    ok = ok && r.correct;
  }
  // One traced run keeps the probes and the trace writer exercised.
  WorkloadRun traced{"bfs_light", 2, 0.5, true, (dir.path / "trace.json").string(),
                     dir.path};
  const Report r = run_workload(traced);
  std::printf("workload %s traced: %zu per-layer metrics, %s\n", traced.name.c_str(),
              r.per_layer.size(), r.correct ? "verified" : "MISMATCH");
  ok = ok && r.correct && fs::file_size(traced.trace_path) > 0;
  std::printf("%s\n", ok ? "quick smoke: all workloads verified" : "quick smoke: FAILED");
  return ok ? 0 : 1;
}

int self_test() {
  int failures = 0;
  const auto check = [&](bool cond, const std::string& what) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what.c_str());
    if (!cond) ++failures;
  };

  // 1. The tail rule: the highest percentile with >= 10 samples beyond.
  for (const std::size_t n : {2000u, 1000u, 500u, 100u, 15u}) {
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(n - i);
    const Tail t = tail(xs);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(xs.begin(), xs.end(), [&](double x) { return x > t.value; }));
    const double expected_rank =
        std::clamp(100.0 * (1.0 - 10.0 / static_cast<double>(n)), 50.0, 99.0);
    check(t.rank == expected_rank && (beyond >= kTailSamples || t.rank == 50.0),
          "tail of " + std::to_string(n) + " samples is p" + std::to_string(t.rank) +
              " with " + std::to_string(beyond) + " beyond");
  }

  // 2. Open-loop latency runs from the scheduled send time: a wave delay
  // of D ms injected on the workers' context raises p50 by >= D.
  const Workdir dir;
  const GraphFiles files = write_inputs(graph_specs(true), 7, dir.path.string());
  TraceLog off(false);
  HostSpeed speed;
  Setup setup = setup_graphs(files, 2, speed, off);
  const gb::Graph& served = setup.own[0];
  TrafficPlan plan;
  plan.workers = capped_workers(3);
  plan.rate_qps = 40.0;
  plan.seconds = 1.0;
  serving::GraphRegistry registry;
  (void)register_graph(files, setup, registry);
  constexpr int kDelayMs = 25;
  const TrafficResult base =
      run_traffic(plan, files.names[0], served, registry, 7, off, nullptr, nullptr);
  bitgb::FaultPlan fault_plan;
  fault_plan.wave_delay = std::chrono::milliseconds(kDelayMs);
  bitgb::FaultInjector fault(fault_plan);
  const TrafficResult delayed =
      run_traffic(plan, files.names[0], served, registry, 7, off, nullptr, &fault);
  Window base_window, delayed_window;
  base_window.add(base, 1.0, true);
  delayed_window.add(delayed, 1.0, true);
  const double p50_base = median(base_window.latencies_ms);
  const double p50_delayed = median(delayed_window.latencies_ms);
  char buf[160];
  std::snprintf(buf, sizeof buf, "p50 %.3f ms -> %.3f ms under a %d ms wave delay",
                p50_base, p50_delayed, kDelayMs);
  check(p50_delayed - p50_base >= kDelayMs, buf);

  // 3. The verifier fails a run where one sampled reply has one flipped
  // bit.
  check(!base.samples.empty(), "the run kept a sampled reply");
  if (!base.samples.empty()) {
    SampledReply flipped = base.samples.front();
    std::string why;
    check(reply_matches(served, flipped, &why), "the untouched reply verifies");
    flipped.reply.levels[flipped.reply.levels.size() / 2] ^= 1;
    const bool caught = !reply_matches(served, flipped, &why);
    check(caught, "one flipped bit fails: " + why);
  }
  std::printf("%s\n", failures == 0 ? "self-test: all checks passed" : "self-test: FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e [--self-test | --workload W --seed N [--seconds S]\n"
               "                 [--json FILE] [--trace FILE]]\n"
               "workloads: bfs_light bfs_backlog algo_offline\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  if (argc == 1) return quick_smoke();
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) return self_test();
  WorkloadRun run;
  std::string json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      run.name = val;
    } else if (arg == "--seed") {
      run.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      run.seconds = std::stod(val);
    } else if (arg == "--json") {
      json = val;
    } else if (arg == "--trace") {
      run.trace_path = val;
    } else {
      return usage();
    }
  }
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), run.name) ==
          std::end(kWorkloads) ||
      !(run.seconds > 0.0)) {
    return usage();
  }
  const Workdir dir;
  run.workdir = dir.path;
  const Report report = run_workload(run);
  print_report(run, report);
  if (!json.empty()) write_json(json, run, report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 3;
  }
}
