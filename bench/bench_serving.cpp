// Query-serving benchmark: the serving::Server under closed-loop
// saturation, open-loop Poisson arrivals, and the multi-tenant
// scenarios (BENCH_serving.json).
//
// Four experiments:
//
//   saturation — every query submitted at once (a full backlog), with
//     max_batch = 1 (the worker pool alone) and with the 64-way
//     auto-batcher, once each per round over rounds that alternate
//     which mode runs first.  The QPS ratio is the serving payoff of the
//     batch engine: under backlog the wave rule finds a 64-wide wave
//     cheaper than 64 single runs, so pop_batch hands over whole runs
//     and each wave's msbfs amortizes one BMM frontier sweep per level
//     across the whole wave.
//
//   open-loop — a Poisson arrival process at several rates bracketing
//     the unbatched capacity, both modes at each rate.  Reported:
//     submit-to-reply latency percentiles (p50/p99/p999), achieved
//     QPS, the admission-control shed counts and the executed
//     wave-width histogram.  Below the break-even
//     width the batched server runs one request at a time, like the
//     unbatched one; above unbatched capacity it keeps answering (wider
//     waves) where the unbatched one sheds at the door — latency
//     degrades into throughput instead of collapse.
//
//   multi-graph — the same closed-loop storm fired round-robin across
//     a three-graph GraphRegistry: the batcher partitions each popped
//     run by graph, so the cell reports how much wave width survives
//     tenancy (mean wave vs the single-graph saturation cell).
//
//   mixed-kinds — one graph, the storm drawing uniformly from all four
//     QueryKinds: per-kind completion counts plus the executed
//     wave-width histogram, the wave rule's decision record.
//
// Every single-graph cell serves the bench graph from one registry of
// one built in main.  Before any measurement, every batched answer is
// verified bit-identical against a serial algo::bfs pass; a mismatch
// fails the run (exit 1).  Timings are reported, not asserted:
// regression detection belongs to the end-to-end benchmark's bounds.
// Results go to BENCH_serving.json (schema bitgb-serving-bench-v8, see
// BUILDING.md), including the persistence roundtrip cell (snapshot
// load vs MatrixMarket re-ingest + prewarm); a file that cannot be
// written also fails the run (exit 1).
#include "algorithms/bfs.hpp"
#include "benchlib/reporting.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"
#include "platform/parallel.hpp"
#include "platform/timer.hpp"
#include "serving/server.hpp"
#include "sparse/convert.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace bitgb;
using serving::GraphRegistry;
using serving::QueryKind;
using serving::Reply;
using serving::Server;
using serving::ServerOptions;
using serving::Status;

/// The registration every single-graph cell submits to.
constexpr const char* kGraphName = "hybrid_4096";
constexpr int kSaturationQueries = 1024;
constexpr int kOpenLoopQueries = 1500;
constexpr std::size_t kOpenLoopQueueCap = 256;
/// Rounds of the saturation pair; each round runs both modes, and
/// consecutive rounds swap which mode runs first.
constexpr int kRounds = 6;

std::vector<vidx_t> random_sources(int count, vidx_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vidx_t> pick(0, n - 1);
  std::vector<vidx_t> sources(static_cast<std::size_t>(count));
  for (auto& s : sources) s = pick(rng);
  return sources;
}

ServerOptions server_options(int max_batch, std::size_t queue_capacity) {
  ServerOptions opts;
  opts.workers = std::min(8, hardware_width());
  opts.queue_capacity = queue_capacity;
  opts.max_batch = max_batch;
  return opts;
}

/// Closed-loop burst: submit everything, then drain.  QPS over the
/// whole burst; every reply must be kOk (capacity covers the burst).
bench::ServingSaturation run_saturation(const GraphRegistry& reg,
                                        const std::vector<vidx_t>& sources,
                                        int max_batch, const char* mode) {
  Server server(reg, server_options(max_batch,
                                    static_cast<std::size_t>(sources.size())));
  std::vector<std::future<Reply>> futs;
  futs.reserve(sources.size());
  Stopwatch watch;
  for (const vidx_t s : sources) {
    futs.push_back(server.submit(kGraphName, QueryKind::kBfs, s));
  }
  for (auto& f : futs) {
    if (f.get().status != Status::kOk) {
      std::fprintf(stderr, "saturation burst shed a query (capacity bug)\n");
      std::exit(1);
    }
  }
  const double ms = watch.elapsed_ms();
  server.shutdown();
  bench::ServingSaturation cell;
  cell.mode = mode;
  cell.queries = static_cast<int>(sources.size());
  cell.qps = 1000.0 * static_cast<double>(sources.size()) / ms;
  cell.mean_wave = server.stats().mean_wave_width();
  return cell;
}

/// Open-loop: Poisson arrivals on an absolute schedule (no coordinated
/// omission — a late submitter submits immediately and the lateness
/// shows up in the measured latency).
bench::ServingRatePoint run_open_loop(const GraphRegistry& reg,
                                      const std::vector<vidx_t>& sources,
                                      int max_batch, const char* mode,
                                      double arrival_qps, std::uint64_t seed) {
  Server server(reg, server_options(max_batch, kOpenLoopQueueCap));
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_s(arrival_qps);

  const auto t0 = serving::clock::now();
  std::vector<std::future<Reply>> futs;
  std::vector<serving::clock::time_point> submitted;
  futs.reserve(sources.size());
  submitted.reserve(sources.size());
  auto due = t0;
  for (const vidx_t s : sources) {
    due += std::chrono::duration_cast<serving::clock::duration>(
        std::chrono::duration<double>(gap_s(rng)));
    std::this_thread::sleep_until(due);
    submitted.push_back(serving::clock::now());
    futs.push_back(server.submit(kGraphName, QueryKind::kBfs, s));
  }

  std::vector<double> latencies_ms;
  latencies_ms.reserve(futs.size());
  auto last_done = t0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Reply r = futs[i].get();
    if (r.status != Status::kOk) continue;
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(r.completed - submitted[i])
            .count());
    last_done = std::max(last_done, r.completed);
  }
  server.shutdown();
  const auto st = server.stats();

  bench::ServingRatePoint pt;
  pt.mode = mode;
  pt.arrival_qps = arrival_qps;
  pt.offered = static_cast<int>(sources.size());
  pt.completed = st.completed;
  pt.shed_queue_full = st.shed_queue_full;
  pt.shed_deadline = st.shed_deadline;
  const double span_ms =
      std::chrono::duration<double, std::milli>(last_done - t0).count();
  pt.achieved_qps =
      span_ms > 0.0 ? 1000.0 * static_cast<double>(st.completed) / span_ms
                    : 0.0;
  pt.p50_ms = bench::percentile(latencies_ms, 50.0);
  pt.p99_ms = bench::percentile(latencies_ms, 99.0);
  pt.p999_ms = bench::percentile(latencies_ms, 99.9);
  pt.mean_wave = st.mean_wave_width();
  pt.wave_width_hist.assign(st.wave_width_hist.begin(),
                            st.wave_width_hist.end());
  return pt;
}

/// Snapshot the stats a scenario cell reports.
bench::ServingScenario scenario_from_stats(const char* name, int graphs,
                                           int queries, double ms,
                                           const serving::ServerStats& st) {
  bench::ServingScenario cell;
  cell.name = name;
  cell.graphs = graphs;
  cell.queries = queries;
  cell.qps = ms > 0.0 ? 1000.0 * static_cast<double>(queries) / ms : 0.0;
  cell.mean_wave = st.mean_wave_width();
  cell.widest_wave = st.widest_wave;
  for (std::size_t k = 0; k < serving::kNumQueryKinds; ++k) {
    cell.completed_by_kind.emplace_back(
        serving::query_kind_name(static_cast<QueryKind>(k)),
        st.completed_by_kind[k]);
  }
  cell.wave_width_hist.assign(st.wave_width_hist.begin(),
                              st.wave_width_hist.end());
  return cell;
}

/// Multi-graph storm: the saturation burst fired round-robin across a
/// three-graph registry.  Partitioning by graph caps the achievable
/// wave width at ~storm/graphs, so mean_wave vs the single-graph cell
/// is the price of tenancy.
bench::ServingScenario run_multi_graph(std::uint64_t seed) {
  serving::GraphRegistry reg;
  const char* names[] = {"hybrid_4096", "rmat_s11", "road_64x64"};
  reg.add(names[0], gb::Graph::from_coo(gen_hybrid(4096, 4)));
  reg.add(names[1], gb::Graph::from_coo(gen_rmat(11, 16384, 9)));
  reg.add(names[2], gb::Graph::from_coo(gen_road(64, 64, 0.02, 13)));
  Server server(reg, server_options(FrontierBatch::kMaxBatch,
                                    kSaturationQueries));
  std::mt19937_64 rng(seed);
  std::vector<std::future<Reply>> futs;
  futs.reserve(kSaturationQueries);
  Stopwatch watch;
  for (int i = 0; i < kSaturationQueries; ++i) {
    const char* name = names[rng() % 3];
    const vidx_t n = reg.lookup(name)->graph().num_vertices();
    futs.push_back(server.submit(
        name, QueryKind::kBfs,
        static_cast<vidx_t>(rng() % static_cast<std::uint64_t>(n))));
  }
  for (auto& f : futs) {
    if (f.get().status != Status::kOk) {
      std::fprintf(stderr, "multi-graph storm shed a query\n");
      std::exit(1);
    }
  }
  const double ms = watch.elapsed_ms();
  server.shutdown();
  return scenario_from_stats("multi-graph", 3, kSaturationQueries, ms,
                             server.stats());
}

/// Mixed-kind storm: one graph, all four QueryKinds drawn uniformly.
bench::ServingScenario run_mixed_kinds(const GraphRegistry& reg,
                                       std::uint64_t seed) {
  const vidx_t n = reg.lookup(kGraphName)->graph().num_vertices();
  Server server(reg, server_options(FrontierBatch::kMaxBatch,
                                    kSaturationQueries));
  std::mt19937_64 rng(seed);
  std::vector<std::future<Reply>> futs;
  futs.reserve(kSaturationQueries);
  Stopwatch watch;
  for (int i = 0; i < kSaturationQueries; ++i) {
    const auto kind =
        static_cast<QueryKind>(rng() % serving::kNumQueryKinds);
    const auto source =
        static_cast<vidx_t>(rng() % static_cast<std::uint64_t>(n));
    futs.push_back(kind == QueryKind::kPagerank
                       ? server.submit_pagerank(kGraphName)
                       : server.submit(kGraphName, kind, source));
  }
  for (auto& f : futs) {
    if (f.get().status != Status::kOk) {
      std::fprintf(stderr, "mixed-kind storm shed a query\n");
      std::exit(1);
    }
  }
  const double ms = watch.elapsed_ms();
  server.shutdown();
  return scenario_from_stats("mixed-kinds", 1, kSaturationQueries, ms,
                             server.stats());
}

/// Persistence roundtrip: the same graph brought to serving readiness
/// by MatrixMarket re-ingest (parse + from_coo + prewarm) and by
/// Graph::load of a prewarmed snapshot, each timed as the min of
/// kPersistRuns.  The loaded graph's BFS answers are verified
/// bit-identical against the original before anything is reported.
bench::ServingPersistence run_persistence(const gb::Graph& g,
                                          const std::string& graph_name) {
  namespace fs = std::filesystem;
  constexpr int kPersistRuns = 3;
  const fs::path dir =
      fs::temp_directory_path() / ("bitgb-bench-" + graph_name);
  fs::create_directories(dir);
  const std::string mm_path = (dir / "graph.mtx").string();
  const std::string snap_path = (dir / "graph.bgbs").string();

  // The text the cold path re-ingests: the graph's own adjacency, so
  // both paths reconstruct the identical object.  from_coo re-runs the
  // default preprocessing, but the adjacency is already symmetrized and
  // loop-free — a fixed point of both passes.
  write_matrix_market_file(mm_path, csr_to_coo(g.adjacency()));

  bench::ServingPersistence cell;
  cell.save_ms = std::numeric_limits<double>::infinity();
  cell.reingest_ms = std::numeric_limits<double>::infinity();
  cell.load_ms = std::numeric_limits<double>::infinity();
  gb::GraphOptions opts;
  opts.tile_dim = g.tile_dim();  // pin: sampling is not part of the cell
  for (int run = 0; run < kPersistRuns; ++run) {
    Stopwatch save_watch;
    g.save(snap_path, gb::kBitFormats);
    cell.save_ms = std::min(cell.save_ms, save_watch.elapsed_ms());

    Stopwatch ingest_watch;
    const gb::Graph reingested =
        gb::Graph::from_coo(read_matrix_market_file(mm_path), opts);
    reingested.prewarm(gb::kBitFormats);
    cell.reingest_ms = std::min(cell.reingest_ms, ingest_watch.elapsed_ms());

    Stopwatch load_watch;
    const gb::Graph loaded = gb::Graph::load(snap_path);
    cell.load_ms = std::min(cell.load_ms, load_watch.elapsed_ms());

    if ((loaded.formats() & gb::kBitFormats) != gb::kBitFormats ||
        loaded.fingerprint() != g.fingerprint() ||
        reingested.fingerprint() != g.fingerprint()) {
      std::fprintf(stderr, "persistence roundtrip changed the graph\n");
      std::exit(1);
    }
    const Context serial_ctx = Context{}.with_threads(1);
    for (const vidx_t s : {vidx_t{0}, g.num_vertices() / 2}) {
      if (algo::bfs(serial_ctx, loaded, {s}).levels !=
          algo::bfs(serial_ctx, g, {s}).levels) {
        std::fprintf(stderr, "loaded snapshot served different answers\n");
        std::exit(1);
      }
    }
  }
  std::error_code ec;
  cell.snapshot_bytes = fs::file_size(snap_path, ec);
  cell.mm_bytes = fs::file_size(mm_path, ec);
  fs::remove_all(dir, ec);
  return cell;
}

void print_scenario(const bench::ServingScenario& s) {
  std::printf("  %-12s %2d graph(s) %10.0f q/s   mean wave %5.1f   widest %llu\n",
              s.name.c_str(), s.graphs, s.qps, s.mean_wave,
              static_cast<unsigned long long>(s.widest_wave));
  std::printf("    by kind:");
  for (const auto& [kind, done] : s.completed_by_kind) {
    std::printf(" %s=%llu", kind.c_str(),
                static_cast<unsigned long long>(done));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const std::string graph_name = kGraphName;
  GraphRegistry reg;  // add() prewarms the bit formats
  const serving::GraphRef slot =
      reg.add(graph_name, gb::Graph::from_coo(gen_hybrid(4096, 4)));
  const gb::Graph& g = slot->graph();
  const int workers = std::min(8, hardware_width());
  std::printf("serving bench: %s, %d vertices, %lld edges, %d worker(s)\n\n",
              graph_name.c_str(), g.num_vertices(),
              static_cast<long long>(g.num_edges()), workers);

  // --- Correctness gate: batched answers vs serial pass --------------
  bool verified = true;
  {
    const auto sources = random_sources(128, g.num_vertices(), 11);
    const Context serial_ctx = Context{}.with_threads(1);
    Server server(reg, server_options(FrontierBatch::kMaxBatch,
                                      sources.size()));
    std::vector<std::future<Reply>> futs;
    for (const vidx_t s : sources) {
      futs.push_back(server.submit(kGraphName, QueryKind::kBfs, s));
    }
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const Reply r = futs[i].get();
      if (r.status != Status::kOk ||
          r.levels != algo::bfs(serial_ctx, g, {sources[i]}).levels) {
        verified = false;
      }
    }
    if (!verified) {
      std::fprintf(stderr,
                   "FAIL: batched served answers differ from serial bfs\n");
      return 1;
    }
    std::printf("verified: 128 batched answers bit-identical to serial "
                "bfs\n\n");
  }

  // --- Saturation ablation -------------------------------------------
  const auto burst =
      random_sources(kSaturationQueries, g.num_vertices(), 17);
  // Warm both paths once before timing.
  (void)run_saturation(reg, random_sources(128, g.num_vertices(), 5), 1,
                       "warm");
  (void)run_saturation(reg, random_sources(128, g.num_vertices(), 6),
                       FrontierBatch::kMaxBatch, "warm");
  // With one burst per mode, four runs of one binary read the speedup
  // anywhere from 2.56 to 4.69x, so the modes run in rounds,
  // alternating which goes first.
  std::vector<bench::ServingSaturation> unbatched_rounds, batched_rounds;
  for (int round = 0; round < kRounds; ++round) {
    const bool batched_first = round % 2 == 1;
    for (const bool batched : {batched_first, !batched_first}) {
      if (batched) {
        batched_rounds.push_back(run_saturation(
            reg, burst, FrontierBatch::kMaxBatch, "batched"));
      } else {
        unbatched_rounds.push_back(
            run_saturation(reg, burst, 1, "unbatched"));
      }
    }
  }
  const bench::ServingSaturationAblation saturation =
      bench::summarize_saturation(unbatched_rounds, batched_rounds);
  const bench::ServingSaturation& unbatched = saturation.unbatched;
  std::printf("saturation (%d-query closed-loop burst, median of %d "
              "alternating rounds):\n",
              kSaturationQueries, saturation.rounds);
  std::printf("  %-10s %10.0f q/s   mean wave %5.1f\n", "unbatched",
              unbatched.qps, unbatched.mean_wave);
  std::printf("  %-10s %10.0f q/s   mean wave %5.1f   %.2fx (quartile "
              "spread %.2fx)\n", "batched", saturation.batched.qps,
              saturation.batched.mean_wave, saturation.batched_speedup,
              saturation.batched_speedup_spread);

  // --- Open-loop latency profile -------------------------------------
  // Rates bracket the unbatched capacity: comfortably under, at, and
  // over it (where only the auto-batcher has headroom).
  const std::vector<double> rates = {0.5 * unbatched.qps, 1.0 * unbatched.qps,
                                     2.0 * unbatched.qps};
  std::vector<bench::ServingRatePoint> points;
  std::printf("\nopen-loop Poisson arrivals (%d offered per cell):\n",
              kOpenLoopQueries);
  std::printf("  %-10s %12s %10s %8s %8s %8s %8s %6s\n", "mode",
              "arrival q/s", "done q/s", "p50 ms", "p99 ms", "p999 ms",
              "shed", "wave");
  std::uint64_t seed = 23;
  for (const double rate : rates) {
    for (const auto& [mode, max_batch] :
         {std::pair<const char*, int>{"unbatched", 1},
          std::pair<const char*, int>{"batched", FrontierBatch::kMaxBatch}}) {
      const auto srcs =
          random_sources(kOpenLoopQueries, g.num_vertices(), seed);
      const auto pt = run_open_loop(reg, srcs, max_batch, mode, rate, seed);
      std::printf("  %-10s %12.0f %10.0f %8.2f %8.2f %8.2f %8llu %6.1f\n",
                  pt.mode.c_str(), pt.arrival_qps, pt.achieved_qps, pt.p50_ms,
                  pt.p99_ms, pt.p999_ms,
                  static_cast<unsigned long long>(pt.shed_queue_full +
                                                  pt.shed_deadline),
                  pt.mean_wave);
      points.push_back(pt);
      ++seed;
    }
  }

  // --- Multi-tenant scenarios ----------------------------------------
  std::printf("\nmulti-tenant scenarios (%d-query closed-loop storms):\n",
              kSaturationQueries);
  const auto multi_graph = run_multi_graph(31);
  print_scenario(multi_graph);
  const auto mixed_kinds = run_mixed_kinds(reg, 37);
  print_scenario(mixed_kinds);

  // --- Persistence roundtrip -----------------------------------------
  // The warm-restart cell: MatrixMarket re-ingest (parse + from_coo +
  // prewarm — the old restart path) vs Graph::load of a snapshot that
  // carries the prewarmed caches.  Bit-identity of served answers is
  // asserted before any timing counts.
  const auto persistence = run_persistence(g, graph_name);
  std::printf("\npersistence roundtrip (%s):\n", graph_name.c_str());
  std::printf("  snapshot %8.1f KiB   save     %8.2f ms\n",
              static_cast<double>(persistence.snapshot_bytes) / 1024.0,
              persistence.save_ms);
  std::printf("  mm text  %8.1f KiB   reingest %8.2f ms\n",
              static_cast<double>(persistence.mm_bytes) / 1024.0,
              persistence.reingest_ms);
  std::printf("  %-8s %8s       load     %8.2f ms   %.1fx faster than "
              "reingest\n", "", "", persistence.load_ms,
              persistence.load_speedup());

  try {
    bench::write_serving_bench_json("BENCH_serving.json", graph_name,
                                    g.num_vertices(), g.num_edges(), workers,
                                    verified, saturation, points,
                                    {multi_graph, mixed_kinds},
                                    persistence);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }
  std::printf("\nwrote BENCH_serving.json (batched/unbatched saturation "
              "speedup: %.2fx)\n", saturation.batched_speedup);
  return 0;
}
