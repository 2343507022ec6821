// bench_e2e — shared declarations of the seeded end-to-end benchmark.
//
// The benchmark generates every input from --seed and hands the library
// only MatrixMarket files, public API calls and Server::submit requests.
// Sampled answers are checked against serial oracles.  README.md lists
// the workloads, the metrics, the layer map and the API-surface rule
// this code keeps to.
#pragma once

#include "graphblas/graph.hpp"
#include "platform/context.hpp"
#include "platform/fault_injector.hpp"
#include "platform/timer.hpp"
#include "serving/registry.hpp"
#include "serving/request.hpp"
#include "sparse/coo.hpp"

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using bitgb::vidx_t;
using bitgb::serving::Reply;
using bitgb::serving::Status;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_between(Clock::time_point from, Clock::time_point to);

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Linear interpolation between order statistics; p in [0, 100].
/// Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> xs, double p);
[[nodiscard]] double median(std::vector<double> xs);

/// A tail percentile is reported only where at least this many samples
/// lie beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// The highest percentile, at most 99 and at least 50, that leaves
/// kTailSamples of `n` samples beyond it.
[[nodiscard]] double tail_rank(std::size_t n);

struct Tail {
  double value = 0.0;
  double rank = 0.0;        ///< the percentile actually reported
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> xs);

// ---------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------

/// How much slower the host runs now than the reference host: the
/// fastest of a few runs of a fixed calibration loop, which calls
/// nothing in the library, over that loop's time on the reference host.
[[nodiscard]] double host_slowdown();

/// host_slowdown() on each CPU the process may run on in turn, averaged.
/// Neighbours load the host's cores unevenly, so at one moment the CPUs
/// of a shared VM can differ in speed by half; threads spread over all
/// of them run at about the average.
[[nodiscard]] double host_slowdown_all_cpus();

/// The host's slowdown across the phases of a run.  A shared virtual
/// machine slows by half or more for stretches of a fraction of a
/// second to minutes, which would move every time the run measures.  So
/// the run is cut into short phases and calibrated at every boundary,
/// while no library work runs; each phase's times are divided by the
/// mean of the calibrations just before and just after it, and its
/// closed-loop rates multiplied by it.
class HostSpeed {
 public:
  HostSpeed() { points_.push_back(host_slowdown()); }

  /// Runs `fn` on this thread and returns the host slowdown over it.
  template <typename Fn>
  double phase(Fn&& fn) {
    const double before = points_.back();
    fn();
    points_.push_back(host_slowdown());
    return 0.5 * (before + points_.back());
  }

  /// Runs `fn`, whose work runs on threads spread over the CPUs, and
  /// returns the host slowdown over it, calibrated on every CPU.  Ends
  /// with a calibration of this thread, for the phase after.
  template <typename Fn>
  double parallel_phase(Fn&& fn) {
    const double before = host_slowdown_all_cpus();
    fn();
    const double after = host_slowdown_all_cpus();
    points_.push_back(host_slowdown());
    return 0.5 * (before + after);
  }

  /// Every calibration of this thread taken so far.
  [[nodiscard]] const std::vector<double>& points() const { return points_; }

 private:
  std::vector<double> points_;
};

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< requests or solves issued
  std::uint64_t failed = 0;     ///< non-kOk replies, failed verifications
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  ///< sample counts, percentiles used

  void fail(const std::string& why);
};

void add_metric(std::vector<Metric>& into, std::string name, double value,
                std::string unit);

// ---------------------------------------------------------------------
// Trace: spans kept in memory, written at exit as Chrome trace events.
// ---------------------------------------------------------------------

class TraceLog {
 public:
  /// Lanes (Chrome "tid") of the spans the benchmark records.
  enum Lane : int { kMain = 1, kGenerator = 2 };

  explicit TraceLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// One span on a lane.  `request` != 0 marks a request span instead:
  /// every span of one request carries the same id.
  void span(std::string name, const char* layer, Clock::time_point begin,
            Clock::time_point end, int lane, std::uint64_t request = 0);

  /// Times one call into a layer and records it as a span.
  template <typename Fn>
  double timed(std::string name, const char* layer, int lane, Fn&& fn) {
    const Clock::time_point begin = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    span(std::move(name), layer, begin, end, lane);
    return ms_between(begin, end);
  }

  [[nodiscard]] std::size_t size() const;
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    const char* layer;
    Clock::time_point begin, end;
    int lane;
    std::uint64_t request;
  };
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// ---------------------------------------------------------------------
// Inputs: seeded graphs, written as MatrixMarket, built as the server
// would build them.
// ---------------------------------------------------------------------

struct GraphSpec {
  std::string name;
  bitgb::Coo (*make)(std::uint64_t seed);
};

/// The three graphs every workload builds: power-law, long-diameter and
/// dense-blocked.  The first is the one the serving workloads serve.
/// `quick` selects small stand-ins for the smoke run.
[[nodiscard]] std::vector<GraphSpec> graph_specs(bool quick);

struct GraphFiles {
  std::vector<std::string> names;
  std::vector<std::string> mtx;   ///< MatrixMarket inputs
  std::vector<std::string> snap;  ///< .bgbs snapshot paths
};

[[nodiscard]] GraphFiles write_inputs(const std::vector<GraphSpec>& specs,
                                      std::uint64_t seed,
                                      const std::string& dir);

struct Setup {
  /// Two builds of every graph: `own` serves the offline pass and the
  /// oracles, `serve` moves into the server's registry.
  std::vector<bitgb::gb::Graph> own;
  std::vector<bitgb::gb::Graph> serve;
  double setup_s = 0.0;  ///< median over the builds, rescaled
  /// Per-graph medians of each step, in ms, as measured.
  std::vector<double> read_ms, from_coo_ms, prewarm_ms;
};

/// Reads, builds and prewarms every graph `builds` (>= 2) times, each
/// build one phase of `speed`.
[[nodiscard]] Setup setup_graphs(const GraphFiles& files, int builds,
                                 HostSpeed& speed, TraceLog& trace);

// ---------------------------------------------------------------------
// Serving traffic: BFS requests against the first graph.
// ---------------------------------------------------------------------

struct RequestRecord {
  std::uint64_t id = 0;
  vidx_t source = 0;
  Status status = Status::kOk;
  double due_ms = 0.0;        ///< scheduled send (open loop) or send
  double sent_ms = 0.0;       ///< actual send
  double submit_us = 0.0;     ///< time inside submit
  double completed_ms = 0.0;  ///< Reply::completed
  double queue_ms = 0.0;      ///< Reply::queue_ms
  int batch_width = 0;        ///< Reply::batch_width

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
  [[nodiscard]] double latency_ms() const { return completed_ms - due_ms; }
  [[nodiscard]] double execute_ms() const {
    return completed_ms - sent_ms - queue_ms;
  }
};

struct SampledReply {
  vidx_t source = 0;
  Reply reply;
};

struct TrafficPlan {
  int workers = 1;
  /// Open loop: Poisson arrivals at `rate_qps`.  Closed loop:
  /// `outstanding` requests always in flight.
  bool open_loop = true;
  double rate_qps = 0.0;
  int outstanding = 0;
  double seconds = 1.0;
};

struct TrafficResult {
  std::vector<RequestRecord> records;
  std::vector<SampledReply> samples;
  double window_s = 0.0;   ///< window start to the last reply
  double kernel_ms = 0.0;  ///< from the workers' KernelTimeSink, if set

  /// Appends another window's records, samples and times.
  void append(TrafficResult&& other);
};

/// Moves the first graph from `setup.serve` into `registry`; returns the
/// time of the GraphRegistry::add, ms.
[[nodiscard]] double register_graph(const GraphFiles& files, Setup& setup,
                                    bitgb::serving::GraphRegistry& registry);

/// Serves one traffic window through a fresh Server over `registry`.
/// `graph` (the benchmark's own copy) gives the vertex count sources are
/// drawn from.  `sink` and `fault` are set on ServerOptions::context
/// when non-null.
[[nodiscard]] TrafficResult run_traffic(
    const TrafficPlan& plan, const std::string& name, const bitgb::gb::Graph& graph,
    bitgb::serving::GraphRegistry& registry, std::uint64_t seed,
    TraceLog& trace, bitgb::KernelTimeSink* sink, bitgb::FaultInjector* fault);

/// The descriptor every serving worker runs under.
[[nodiscard]] bitgb::Context worker_context();

/// The one helper that reads reply result vectors: true iff the reply is
/// kOk and bit-identical to serial algo::bfs under worker_context().
[[nodiscard]] bool reply_matches(const bitgb::gb::Graph& g, const SampledReply& s,
                                 std::string* why);

// ---------------------------------------------------------------------
// Offline: time to solution per (algorithm, graph), plus the probes of
// the traced run.
// ---------------------------------------------------------------------

inline constexpr int kNumAlgos = 5;
[[nodiscard]] const char* algo_name(int a);  ///< bfs sssp pagerank cc tc

/// [algo][graph] the time to solution of every solve, ms.
using CellTimes = std::vector<std::vector<std::vector<double>>>;

struct OfflineResult {
  CellTimes raw;     ///< as measured
  CellTimes scaled;  ///< divided by the host slowdown of their phase

  [[nodiscard]] double median_ms(int algo, std::size_t graph) const;  ///< scaled
  [[nodiscard]] double raw_median_ms(int algo, std::size_t graph) const;
  [[nodiscard]] std::uint64_t solves() const;
};

/// Appends one round over every (algorithm, graph) cell to `into`: a
/// cell repeats until it ran once and for `cell_round_s` seconds, as
/// one phase of `speed`.  The first round checks the bit backend against
/// the reference backend once per cell.
void run_offline_round(const std::vector<bitgb::gb::Graph>& graphs,
                       const std::vector<std::string>& names, double cell_round_s,
                       HostSpeed& speed, TraceLog& trace, Report& report,
                       OfflineResult& into);

/// Single-source BFS from uniformly random sources, called directly with
/// no server: one closed-loop client for `seconds`, in short phases of
/// `speed`.  Returns the time to solution of each solve, ms, divided by
/// the host slowdown of its phase; every 128th answer is checked against
/// the reference backend.
[[nodiscard]] std::vector<double> run_direct_bfs(const bitgb::gb::Graph& g,
                                                 std::uint64_t seed,
                                                 double seconds, HostSpeed& speed,
                                                 TraceLog& trace, Report& report);

/// The traced run's algorithm and kernel probes, appended to
/// report.per_layer.
void probe_algorithms(const std::vector<bitgb::gb::Graph>& graphs,
                      const std::vector<std::string>& names,
                      const OfflineResult& offline, std::uint64_t seed,
                      TraceLog& trace, Report& report);
void probe_kernels(const std::vector<bitgb::gb::Graph>& graphs,
                   const std::vector<std::string>& names, TraceLog& trace,
                   Report& report);
void probe_snapshots(const std::vector<bitgb::gb::Graph>& graphs,
                     const GraphFiles& files, TraceLog& trace,
                     Report& report);

/// splitmix64: derives independent streams from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t x);

}  // namespace e2e
