// Concurrent queries, served: the serving::Server over ONE shared
// Graph (a registry of one) — the query-serving core the
// Context/Descriptor API exists to make safe.
//
//   $ ./concurrent_queries
//
// A production graph service shares one immutable, prewarmed Graph
// across a pool of long-lived workers, each owning a Context +
// Workspace pair.  Clients submit() single-source queries and get
// futures; a bounded queue sheds on overload, and the auto-batcher
// coalesces backlogged same-kind queries into up-to-64-wide msbfs
// waves (one BMM frontier sweep per level for the whole wave).  The
// demo drives the same request stream through three gears — a serial
// reference pass, an unbatched server (max_batch = 1), and the
// auto-batching server — and verifies every served answer bit-for-bit
// against the serial pass.
//
// The second act is the multi-tenant form: a GraphRegistry of named
// graphs behind one Server, all four query kinds (BFS, reachability,
// PageRank, connected components), kBadGraph routing for unknown
// names, and a remove() racing in-flight queries — which drain safely,
// because every admitted request co-owns its graph snapshot.
#include "algorithms/bfs.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"
#include "platform/parallel.hpp"
#include "platform/timer.hpp"
#include "serving/server.hpp"
#include "sparse/generators.hpp"

#include <algorithm>
#include <cstdio>
#include <future>
#include <random>
#include <vector>

int main() {
  using namespace bitgb;
  using serving::QueryKind;
  using serving::Reply;
  using serving::Server;
  using serving::ServerOptions;
  using serving::Status;

  // The served graph, shared by every worker below.  A registry of one
  // holds it: add() prewarms (pays the one-time packing/transpose
  // conversions before serving starts, so no query ever hits a cold
  // format cache), and every submit names it.
  serving::GraphRegistry single;
  const serving::GraphRef slot =
      single.add("rmat", gb::Graph::from_coo(gen_rmat(12, 32768, 7)));
  const gb::Graph& g = slot->graph();
  std::printf("serving graph: %d vertices, %lld edges, tile %dx%d, "
              "formats 0x%03x\n\n",
              g.num_vertices(), static_cast<long long>(g.num_edges()),
              g.tile_dim(), g.tile_dim(), g.formats());

  // The request stream: 256 queries with random start vertices.
  constexpr int kQueries = 256;
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<vidx_t> pick(0, g.num_vertices() - 1);
  std::vector<vidx_t> queue(kQueries);
  for (auto& q : queue) q = pick(rng);

  // --- Serial reference pass (one Context, one thread) ---------------
  std::vector<std::vector<std::int32_t>> expected(kQueries);
  Stopwatch serial_watch;
  {
    const Context ctx = Context{}.with_threads(1);
    algo::Workspace ws;
    algo::BfsResult out;
    for (int q = 0; q < kQueries; ++q) {
      algo::bfs(ctx, g, {queue[static_cast<std::size_t>(q)]}, ws, out);
      expected[static_cast<std::size_t>(q)] = out.levels;
    }
  }
  const double serial_ms = serial_watch.elapsed_ms();

  // One closed-loop burst through a Server: submit everything, then
  // collect.  Returns {elapsed_ms, mean wave width} and verifies every
  // reply against the serial pass.
  const int nworkers = std::min(8, hardware_width());
  auto run_server = [&](int max_batch, double* mean_wave) -> double {
    ServerOptions opts;
    opts.workers = nworkers;
    opts.queue_capacity = kQueries;  // burst fits: no shedding today
    opts.max_batch = max_batch;
    Server server(single, opts);

    std::vector<std::future<Reply>> futs;
    futs.reserve(kQueries);
    Stopwatch watch;
    for (int q = 0; q < kQueries; ++q) {
      futs.push_back(server.submit("rmat", QueryKind::kBfs,
                                   queue[static_cast<std::size_t>(q)]));
    }
    int mismatches = 0;
    for (int q = 0; q < kQueries; ++q) {
      const Reply r = futs[static_cast<std::size_t>(q)].get();
      if (r.status != Status::kOk ||
          r.levels != expected[static_cast<std::size_t>(q)]) {
        ++mismatches;
      }
    }
    const double ms = watch.elapsed_ms();
    server.shutdown();
    if (mismatches != 0) {
      std::printf("MISMATCH: %d served answers differ from serial\n",
                  mismatches);
      std::exit(1);
    }
    *mean_wave = server.stats().mean_wave_width();
    return ms;
  };

  // --- Unbatched server: the worker pool alone -----------------------
  double unbatched_wave = 0.0;
  const double unbatched_ms = run_server(1, &unbatched_wave);

  // --- Auto-batching server: backlog coalesces into msbfs waves ------
  double batched_wave = 0.0;
  const double batched_ms =
      run_server(FrontierBatch::kMaxBatch, &batched_wave);

  std::printf("%d queries, one shared Graph, %d serving workers:\n",
              kQueries, nworkers);
  std::printf("  serial loop (no server):    %8.2f ms (%6.0f q/s)\n",
              serial_ms, 1000.0 * kQueries / serial_ms);
  std::printf("  server, max_batch=1:        %8.2f ms (%6.0f q/s), %.1fx\n",
              unbatched_ms, 1000.0 * kQueries / unbatched_ms,
              serial_ms / unbatched_ms);
  std::printf("  server, 64-way auto-batch:  %8.2f ms (%6.0f q/s), %.1fx  "
              "(mean wave %.1f)\n",
              batched_ms, 1000.0 * kQueries / batched_ms,
              serial_ms / batched_ms, batched_wave);
  std::printf("\nall %d served answers verified against the serial pass\n",
              kQueries);

  // --- Multi-tenant: a registry of named graphs, all four kinds ------
  std::printf("\nmulti-tenant serving (GraphRegistry):\n");
  serving::GraphRegistry registry;
  registry.add("social", gb::Graph::from_coo(gen_rmat(11, 16384, 21)));
  registry.add("roads", gb::Graph::from_coo(gen_road(48, 48, 0.02, 23)));
  {
    ServerOptions opts;
    opts.workers = nworkers;
    Server server(registry, opts);

    // One of each kind, routed by name.  PageRank params travel in the
    // request; components is memoized per registration, so the second
    // query is a read.
    auto bfs_fut = server.submit("social", QueryKind::kBfs, 0);
    auto reach_fut = server.submit("social", QueryKind::kReach, 0);
    algo::PageRankParams pr;
    pr.max_iterations = 20;
    auto pr_fut = server.submit_pagerank("social", pr);
    auto cc_cold = server.submit("roads", QueryKind::kComponents);
    auto cc_warm = server.submit("roads", QueryKind::kComponents);

    // An unknown name is an answer, not an exception: the future
    // resolves immediately with kBadGraph.
    auto ghost = server.submit("ghost", QueryKind::kBfs, 0);

    // remove() while queries may still be in flight: the registration
    // is gone, but admitted queries co-own the slot and drain.
    registry.remove("roads");
    auto after_remove = server.submit("roads", QueryKind::kComponents);

    const Reply bfs_r = bfs_fut.get();
    const Reply reach_r = reach_fut.get();
    const Reply pr_r = pr_fut.get();
    const Reply cc1 = cc_cold.get();
    const Reply cc2 = cc_warm.get();
    std::printf("  social/bfs:        %s, %zu levels\n",
                serving::status_name(bfs_r.status), bfs_r.levels.size());
    std::printf("  social/reach:      %s, %zu flags\n",
                serving::status_name(reach_r.status), reach_r.reached.size());
    std::printf("  social/pagerank:   %s, %d iterations\n",
                serving::status_name(pr_r.status), pr_r.iterations);
    std::printf("  roads/components:  %s, %zu labels (%d FastSV rounds; "
                "second read memoized: %s)\n",
                serving::status_name(cc1.status), cc1.component.size(),
                cc1.iterations,
                cc1.component == cc2.component ? "identical" : "BUG");
    std::printf("  ghost/bfs:         %s\n",
                serving::status_name(ghost.get().status));
    std::printf("  roads after remove(): %s (in-flight queries drained "
                "safely)\n",
                serving::status_name(after_remove.get().status));
  }
  return 0;
}
