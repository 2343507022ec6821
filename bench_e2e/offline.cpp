// Offline time to solution (the paper's Tables VII-IX measurement), the
// no-server BFS stream, and the traced run's algorithm, kernel and
// snapshot probes.
#include "e2e.hpp"

#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/msbfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/tc.hpp"
#include "core/bmm.hpp"
#include "core/bmv.hpp"
#include "core/frontier_batch.hpp"
#include "core/pack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <type_traits>

namespace e2e {

namespace gb = bitgb::gb;
namespace algo = bitgb::algo;

namespace {

enum Algo : int { kBfs, kSssp, kPagerank, kCc, kTc };

/// Times `fn` call by call until it ran `min_reps` times and for at
/// least `min_s` seconds, or for `max_s` seconds, or `max_reps` times
/// (always at least once).
template <typename Fn>
std::vector<double> repeat_timed(Fn&& fn, int min_reps, double min_s,
                                 double max_s, int max_reps) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const Clock::time_point t = Clock::now();
    fn();
    const Clock::time_point done = Clock::now();
    times.push_back(ms_between(t, done));
    const double elapsed_s = ms_between(start, done) / 1000.0;
    const auto reps = static_cast<int>(times.size());
    if (elapsed_s >= max_s || reps >= max_reps) break;
    if (reps >= min_reps && elapsed_s >= min_s) break;
  }
  return times;
}

/// The probes' repetition rule: three calls and 0.1 s, or 1 s, or 200
/// calls.
template <typename Fn>
std::vector<double> probe_times(Fn&& fn) {
  return repeat_timed(std::forward<Fn>(fn), 3, 0.1, 1.0, 200);
}

/// One solve of algorithm `a` on the workspace form.
struct Solver {
  algo::Workspace ws;
  algo::BfsResult bfs;
  algo::SsspResult sssp;
  algo::PageRankResult pagerank;
  algo::CcResult cc;
  algo::TcResult tc;

  void run(int a, const bitgb::Context& ctx, const gb::Graph& g, vidx_t hub) {
    switch (a) {
      case kBfs: algo::bfs(ctx, g, {hub}, ws, bfs); break;
      case kSssp: algo::sssp(ctx, g, {hub}, ws, sssp); break;
      case kPagerank: algo::pagerank(ctx, g, {}, ws, pagerank); break;
      case kCc: algo::connected_components(ctx, g, {}, ws, cc); break;
      default: algo::triangle_count(ctx, g, {}, ws, tc); break;
    }
  }
};

/// Bit backend against the reference backend (the GraphBLAST stand-in):
/// exact for BFS, SSSP, CC and TC; PageRank within the differential
/// suite's tolerance, since the two backends sum in different orders.
bool matches_reference(int a, const Solver& bit, const gb::Graph& g,
                       vidx_t hub) {
  const bitgb::Context ref = worker_context().with_backend(bitgb::Backend::kReference);
  switch (a) {
    case kBfs: return bit.bfs.levels == algo::bfs(ref, g, {hub}).levels;
    case kSssp: return bit.sssp.dist == algo::sssp(ref, g, {hub}).dist;
    case kCc: return bit.cc.component == algo::connected_components(ref, g).component;
    case kTc: return bit.tc.triangles == algo::triangle_count(ref, g);
    default: {
      constexpr double kRankTolerance = 1e-4;
      const std::vector<bitgb::value_t> expected = algo::pagerank(ref, g).rank;
      if (expected.size() != bit.pagerank.rank.size()) return false;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        if (std::fabs(static_cast<double>(expected[i]) -
                      static_cast<double>(bit.pagerank.rank[i])) > kRankTolerance) {
          return false;
        }
      }
      return true;
    }
  }
}

/// The vertex BFS and SSSP start from: the highest degree, lowest id on
/// ties — a fixed rule, so the eccentricity of a random start does not
/// enter the time to solution.
vidx_t hub_vertex(const gb::Graph& g) {
  const std::vector<vidx_t>& deg = g.degrees();
  vidx_t hub = 0;
  for (vidx_t v = 1; v < g.num_vertices(); ++v) {
    if (deg[static_cast<std::size_t>(v)] > deg[static_cast<std::size_t>(hub)]) hub = v;
  }
  return hub;
}

std::vector<vidx_t> random_sources(const gb::Graph& g, std::size_t count,
                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<vidx_t> out(count);
  for (vidx_t& s : out) {
    s = static_cast<vidx_t>(rng() % static_cast<std::uint64_t>(g.num_vertices()));
  }
  return out;
}

}  // namespace

const char* algo_name(int a) {
  constexpr const char* kNames[kNumAlgos] = {"bfs", "sssp", "pagerank", "cc", "tc"};
  return kNames[a];
}

double OfflineResult::median_ms(int algo, std::size_t graph) const {
  return median(scaled[static_cast<std::size_t>(algo)][graph]);
}

double OfflineResult::raw_median_ms(int algo, std::size_t graph) const {
  return median(raw[static_cast<std::size_t>(algo)][graph]);
}

std::uint64_t OfflineResult::solves() const {
  std::uint64_t n = 0;
  for (const auto& per_graph : raw) {
    for (const auto& cell : per_graph) n += cell.size();
  }
  return n;
}

void run_offline_round(const std::vector<gb::Graph>& graphs,
                       const std::vector<std::string>& names, double cell_round_s,
                       HostSpeed& speed, TraceLog& trace, Report& report,
                       OfflineResult& into) {
  const bitgb::Context ctx = worker_context();
  const bool verify = into.raw.empty();
  if (verify) {
    into.raw.assign(kNumAlgos, std::vector<std::vector<double>>(graphs.size()));
    into.scaled = into.raw;
  }
  Solver solver;
  for (int a = 0; a < kNumAlgos; ++a) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const gb::Graph& g = graphs[i];
      const vidx_t hub = hub_vertex(g);
      const std::string span = std::string(algo_name(a)) + " " + names[i];
      std::vector<double> t;
      const double slowdown = speed.phase([&] {
        t = repeat_timed(
            [&] {
              trace.timed(span, "algorithms", TraceLog::kMain,
                          [&] { solver.run(a, ctx, g, hub); });
            },
            1, cell_round_s, std::numeric_limits<double>::infinity(),
            std::numeric_limits<int>::max());
      });
      const auto ai = static_cast<std::size_t>(a);
      for (const double ms : t) {
        into.raw[ai][i].push_back(ms);
        into.scaled[ai][i].push_back(ms / slowdown);
      }
      if (verify && !matches_reference(a, solver, g, hub)) {
        ++report.failed;
        report.fail(span + ": bit backend differs from the reference backend");
      }
    }
  }
}

std::vector<double> run_direct_bfs(const gb::Graph& g, std::uint64_t seed,
                                   double seconds, HostSpeed& speed, TraceLog& trace,
                                   Report& report) {
  // Phases of a quarter second: long enough that calibrating costs a
  // few percent of the time, short enough to follow the host's speed.
  constexpr double kPhaseS = 0.25;
  const bitgb::Context ctx = worker_context();
  const bitgb::Context ref = ctx.with_backend(bitgb::Backend::kReference);
  std::mt19937_64 rng(mix_seed(seed ^ 0xd1ecULL));
  algo::Workspace ws;
  algo::BfsResult out;
  std::vector<double> latencies;
  std::size_t solves = 0;
  for (double left = seconds; left > 0.0; left -= kPhaseS) {
    std::vector<double> phase_ms;
    const double slowdown = speed.phase([&] {
      const Clock::time_point end =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(std::min(left, kPhaseS)));
      while (Clock::now() < end) {
        const auto source = static_cast<vidx_t>(
            rng() % static_cast<std::uint64_t>(g.num_vertices()));
        phase_ms.push_back(trace.timed("bfs", "algorithms", TraceLog::kMain, [&] {
          algo::bfs(ctx, g, {source}, ws, out);
        }));
        if (++solves % 128 == 1 && out.levels != algo::bfs(ref, g, {source}).levels) {
          ++report.failed;
          report.fail("direct bfs from " + std::to_string(source) +
                      " differs from the reference backend");
        }
      }
    });
    for (const double ms : phase_ms) latencies.push_back(ms / slowdown);
  }
  return latencies;
}

void probe_algorithms(const std::vector<gb::Graph>& graphs,
                      const std::vector<std::string>& names,
                      const OfflineResult& offline, std::uint64_t seed,
                      TraceLog& trace, Report& report) {
  const bitgb::Context ctx = worker_context();
  const bitgb::Context ref = ctx.with_backend(bitgb::Backend::kReference);
  auto& m = report.per_layer;
  Solver solver;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const gb::Graph& g = graphs[i];
    const vidx_t hub = hub_vertex(g);
    const std::string& gname = names[i];
    for (int a = 0; a < kNumAlgos; ++a) {
      const std::string base = std::string("algorithms.") + algo_name(a) + "." + gname;
      // The paper's algorithm-vs-kernel split: kernel time over the same
      // solves' wall time.
      bitgb::KernelTimeSink sink;
      const bitgb::Context timed = ctx.with_timer(&sink);
      double wall_ms = 0.0;
      trace.timed(std::string(algo_name(a)) + " kernel-split " + gname,
                  "algorithms", TraceLog::kMain, [&] {
                    for (const double t : probe_times([&] { solver.run(a, timed, g, hub); })) {
                      wall_ms += t;
                    }
                  });
      Solver reference;
      const std::vector<double> ref_times = probe_times([&] { reference.run(a, ref, g, hub); });
      add_metric(m, base + ".ms", offline.raw_median_ms(a, i), "ms");
      add_metric(m, base + ".kernel_share", sink.ms() / wall_ms, "ratio");
      add_metric(m, base + ".ref_ms", median(ref_times), "ms");
    }
    solver.run(kPagerank, ctx, g, hub);
    add_metric(m, "algorithms.pagerank." + gname + ".iterations",
               solver.pagerank.iterations, "count");
    solver.run(kBfs, ctx, g, hub);
    add_metric(m, "algorithms.bfs." + gname + ".levels", solver.bfs.iterations,
               "count");

    // Multi-source BFS by wave width: w8 against 8 x w1 is the break-even
    // width behind a light-load wave's cost.
    const std::vector<vidx_t> sources = random_sources(g, 64, mix_seed(seed ^ i));
    algo::MsBfsResult ms_out;
    for (const std::size_t width : {1u, 8u, 64u}) {
      algo::MsBfsParams params;
      params.sources.assign(sources.begin(),
                            sources.begin() + static_cast<std::ptrdiff_t>(width));
      const std::vector<double> times = probe_times(
          [&] { algo::msbfs(ctx, g, params, solver.ws, ms_out); });
      add_metric(m, "algorithms.msbfs." + gname + ".w" + std::to_string(width) + "_ms",
                 median(times), "ms");
    }
  }
}

void probe_kernels(const std::vector<gb::Graph>& graphs,
                   const std::vector<std::string>& names, TraceLog& trace,
                   Report& report) {
  using bitgb::Exec;
  auto& m = report.per_layer;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const gb::Graph& g = graphs[i];
    const std::string& gname = names[i];
    const vidx_t n = g.num_vertices();
    const vidx_t hub = hub_vertex(g);
    // Computed bytes: every operand the kernel must read or write once.
    const auto record = [&](const char* kernel, const std::vector<double>& times,
                            double bytes) {
      add_metric(m, std::string("core.") + kernel + "." + gname + ".us",
                 1000.0 * median(times), "us");
      add_metric(m, std::string("core.") + kernel + "." + gname + ".bytes", bytes,
                 "B");
    };
    const auto probe = [&](const char* kernel, auto&& fn) {
      std::vector<double> times;
      trace.timed(std::string(kernel) + " " + gname, "core", TraceLog::kMain,
                  [&] { times = probe_times(fn); });
      return times;
    };
    g.packed().visit([&](const auto& a) {
      using B2sr = std::decay_t<decltype(a)>;
      constexpr int Dim = B2sr::dim;
      using Vec = bitgb::PackedVecT<Dim>;
      using word_t = typename Vec::word_t;
      const double vec_bytes =
          static_cast<double>(((n + Dim - 1) / Dim) * sizeof(word_t));

      // A BFS level-2 expansion from the hub: frontier = its neighbours,
      // mask = everything visited so far.
      Vec frontier(n), visited(n), next(n);
      visited.set(hub);
      for (const vidx_t v : g.adjacency().row_cols(hub)) {
        frontier.set(v);
        visited.set(v);
      }
      record("bmv_bin_bin_bin_masked",
             probe("bmv_bin_bin_bin_masked", [&] {
               bitgb::bmv_bin_bin_bin_masked<Dim>(a, frontier, visited, true, next,
                                                  Exec::serial());
             }),
             static_cast<double>(a.storage_bytes()) + 3.0 * vec_bytes);

      const std::vector<bitgb::value_t> x(static_cast<std::size_t>(n),
                                          1.0f / static_cast<float>(n));
      std::vector<bitgb::value_t> y;
      record("bmv_bin_full_full",
             probe("bmv_bin_full_full", [&] {
               bitgb::bmv_bin_full_full<Dim, bitgb::PlusTimesOp>(a, x, y,
                                                                 Exec::serial());
             }),
             static_cast<double>(a.storage_bytes()) +
                 2.0 * sizeof(bitgb::value_t) * static_cast<double>(n));

      std::vector<vidx_t> sources;
      for (vidx_t s = 0; s < 64; ++s) sources.push_back((hub + s * 977) % n);
      const bitgb::FrontierBatch f = bitgb::FrontierBatch::from_sources(n, sources);
      bitgb::FrontierBatch out;
      record("bmm_frontier_masked",
             probe("bmm_frontier_masked", [&] {
               bitgb::bmm_frontier_masked<Dim>(a, f, f, true, out, Exec::serial());
             }),
             static_cast<double>(a.storage_bytes()) +
                 3.0 * sizeof(bitgb::FrontierBatch::word_t) * static_cast<double>(n));

      const B2sr& lower = g.packed_lower().template as<Dim>();
      std::int64_t triangles = 0;
      record("bmm_bin_bin_sum_masked",
             probe("bmm_bin_bin_sum_masked", [&] {
               triangles = bitgb::bmm_bin_bin_sum_masked<Dim>(lower, lower, lower,
                                                              Exec::serial());
             }),
             3.0 * static_cast<double>(lower.storage_bytes()));
      if (triangles < 0) report.fail("bmm_bin_bin_sum_masked returned a negative sum");

      B2sr packed;
      record("pack_from_csr",
             probe("pack_from_csr", [&] {
               packed = bitgb::pack_from_csr<Dim>(g.adjacency(), Exec::serial());
             }),
             static_cast<double>(g.adjacency().storage_bytes() + a.storage_bytes()));
      if (packed.tile_colind != a.tile_colind || packed.bits != a.bits) {
        report.fail("pack_from_csr probe of " + gname + " differs from the graph's B2SR");
      }
    });
    add_metric(m, "core.b2sr_bytes." + gname,
               static_cast<double>(g.packed().storage_bytes() +
                                   g.packed_t().storage_bytes() +
                                   g.packed_lower().storage_bytes()),
               "B");
  }
}

void probe_snapshots(const std::vector<gb::Graph>& graphs,
                     const GraphFiles& files, TraceLog& trace, Report& report) {
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const std::string& gname = files.names[i];
    const std::vector<double> save = probe_times([&] {
      trace.timed("snapshot_save " + gname, "sparse", TraceLog::kMain,
                  [&] { graphs[i].save(files.snap[i]); });
    });
    bool same = true;
    const std::vector<double> load = probe_times([&] {
      trace.timed("snapshot_load " + gname, "sparse", TraceLog::kMain, [&] {
        same = same && gb::Graph::load(files.snap[i]).fingerprint() ==
                           graphs[i].fingerprint();
      });
    });
    if (!same) report.fail("snapshot of " + gname + " loads a different graph");
    add_metric(report.per_layer, "sparse.snapshot_save." + gname + ".ms",
               median(save), "ms");
    add_metric(report.per_layer, "sparse.snapshot_load." + gname + ".ms",
               median(load), "ms");
  }
}

}  // namespace e2e
