// Context/Descriptor execution API tests — the concurrent-serving
// contract of the redesign:
//
//   * two Contexts with different thread budgets / backends / timer
//     sinks can run concurrently over ONE shared Graph and produce
//     results bit-identical to serial runs;
//   * the Graph's lazy format caches are safe to hammer from many
//     threads (the dedicated regression test for the pre-redesign
//     unsynchronized `mutable` caches);
//   * a reused Workspace run equals a fresh-allocation run for
//     BFS / PR / CC.
//
// The whole file runs under the ThreadSanitizer CI lane (label
// "context"; BITGB_SANITIZE=thread) — safe concurrent reads of shared
// Graphs are the tentpole's whole claim.
#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/mis.hpp"
#include "algorithms/msbfs.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/tc.hpp"
#include "algorithms/workspace.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"
#include "sparse/generators.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace bitgb {
namespace {

TEST(Context, FluentCopiesCompose) {
  KernelTimeSink sink;
  const Context ctx = Context{}
                          .with_backend(Backend::kReference)
                          .with_threads(2)
                          .with_timer(&sink)
                          .with_seed(99);
  EXPECT_EQ(Backend::kReference, ctx.backend);
  EXPECT_EQ(2, ctx.threads);
  EXPECT_EQ(&sink, ctx.timer);
  EXPECT_EQ(99u, ctx.seed);
  const Exec e = ctx.exec();
  EXPECT_EQ(2, e.threads);
  // The original is untouched — descriptors are values.
  EXPECT_EQ(Backend::kBit, Context{}.backend);
}

// ---------------------------------------------------------------------
// Lazy multi-format Graph: introspection, prewarm, and the 8-thread
// cache-hammer regression test.
// ---------------------------------------------------------------------

TEST(GraphFormats, LazyMaterializationIsObservable) {
  // Directed, so that the transposes are formats of their own (a
  // symmetric graph's are A's).
  gb::GraphOptions directed;
  directed.symmetrize = false;
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(8, 1500, 5), directed);
  EXPECT_EQ(gb::kFmtCsr, g.formats());  // only the CSR exists up front
  (void)g.adjacency_t();
  EXPECT_EQ(gb::kFmtCsr | gb::kFmtCsrT, g.formats());
  (void)g.packed();
  EXPECT_TRUE(g.formats() & gb::kFmtB2sr);
  EXPECT_FALSE(g.formats() & gb::kFmtB2srT);
}

TEST(GraphFormats, PrewarmMaterializesRequestedSet) {
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(8, 1500, 6));
  g.prewarm(gb::kBitFormats);
  EXPECT_EQ(gb::kBitFormats, g.formats() & gb::kBitFormats);
  g.prewarm(gb::kAllFormats);
  EXPECT_EQ(gb::kAllFormats, g.formats());
}

TEST(GraphFormats, TileDimIsLazyAndStable) {
  gb::GraphOptions opts;  // tile_dim = 0: sampling advisor decides
  const gb::Graph g = gb::Graph::from_coo(gen_banded(512, 6, 0.8, 7), opts);
  const int d1 = g.tile_dim();
  EXPECT_TRUE(d1 == 4 || d1 == 8 || d1 == 16 || d1 == 32);
  EXPECT_EQ(d1, g.tile_dim());  // decided once
}

// The dedicated regression test for the pre-redesign data race:
// adjacency_t() and friends mutated unsynchronized `mutable` members on
// first call.  Hammer every lazy accessor of ONE shared const Graph
// from 8 threads; under the TSan lane any residual race is fatal, and
// in every build the views must agree across threads.
TEST(GraphFormats, ConcurrentLazyMaterializationIsSafe) {
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(10, 12000, 8));
  constexpr int kThreads = 8;
  std::atomic<int> barrier{0};
  std::vector<eidx_t> t_nnz(kThreads, 0);
  std::vector<vidx_t> tiles(kThreads, 0);
  std::vector<int> dims(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Rough rendezvous so the first calls really do collide.
      barrier.fetch_add(1);
      while (barrier.load() < kThreads) {
      }
      dims[static_cast<std::size_t>(t)] = g.tile_dim();
      t_nnz[static_cast<std::size_t>(t)] =
          g.adjacency_t().nnz() + g.unit_adjacency_t().nnz() +
          g.lower().nnz() + static_cast<eidx_t>(g.degrees().size()) +
          static_cast<eidx_t>(g.no_in_edges().size());
      tiles[static_cast<std::size_t>(t)] = g.packed().nnz_tiles() +
                                           g.packed_t().nnz_tiles() +
                                           g.packed_lower().nnz_tiles();
      (void)g.formats();
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(dims[0], dims[static_cast<std::size_t>(t)]);
    EXPECT_EQ(t_nnz[0], t_nnz[static_cast<std::size_t>(t)]);
    EXPECT_EQ(tiles[0], tiles[static_cast<std::size_t>(t)]);
  }
  EXPECT_EQ(gb::kAllFormats, g.formats());
}

// ---------------------------------------------------------------------
// Concurrent Contexts over one shared Graph — the serving contract.
// ---------------------------------------------------------------------

// Serial ground truth, then 8 concurrent workers with DIFFERENT
// descriptors (thread budgets 1/2, both backends, per-worker timer
// sinks) over the same Graph.  Every concurrent result must be
// bit-identical to the serial result of the same backend.
TEST(ConcurrentContexts, MixedDescriptorsMatchSerialRuns) {
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(10, 12000, 9));
  g.prewarm(gb::kAllFormats);
  const vidx_t src = 1;

  const Context serial_bit = Context{}.with_threads(1);
  const Context serial_ref = serial_bit.with_backend(Backend::kReference);
  const auto bfs_bit = algo::bfs(serial_bit, g, {src});
  const auto bfs_ref = algo::bfs(serial_ref, g, {src});
  const auto pr_bit = algo::pagerank(serial_bit, g);
  const auto cc_bit = algo::connected_components(serial_bit, g);
  const auto sssp_bit = algo::sssp(serial_bit, g, {src});
  const auto sssp_ref = algo::sssp(serial_ref, g, {src});

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Every worker gets a distinct descriptor mix.
      KernelTimeSink sink;  // per-query sink: no shared accumulator
      const Context ctx =
          Context{}.with_threads(1 + t % 2).with_timer(&sink);
      algo::Workspace ws;  // SSSP's slots, reused across the reps
      algo::SsspResult s;
      for (int rep = 0; rep < 3; ++rep) {
        if (t % 4 == 3) {
          // Reference-backend worker among bit-backend workers.
          const auto r =
              algo::sssp(ctx.with_backend(Backend::kReference), g, {src});
          if (r.dist != sssp_ref.dist) failures.fetch_add(1);
          continue;
        }
        const auto b = algo::bfs(ctx, g, {src});
        if (b.levels != bfs_bit.levels) failures.fetch_add(1);
        const auto p = algo::pagerank(ctx, g);
        if (p.rank != pr_bit.rank) failures.fetch_add(1);
        const auto c = algo::connected_components(ctx, g);
        if (c.component != cc_bit.component) failures.fetch_add(1);
        algo::sssp(ctx, g, {src}, ws, s);
        if (s.dist != sssp_bit.dist || s.iterations != sssp_bit.iterations) {
          failures.fetch_add(1);
        }
      }
      if (sink.ms() < 0.0) failures.fetch_add(1);  // sink stays sane
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(0, failures.load());
  // And the two backends agree with each other.
  EXPECT_EQ(bfs_ref.levels, bfs_bit.levels);
  EXPECT_EQ(sssp_ref.dist, sssp_bit.dist);
  EXPECT_EQ(sssp_ref.iterations, sssp_bit.iterations);
}

// A cold Graph shared by concurrent queries: the first queries trigger
// the lazy packing themselves, racing the caches through real
// algorithm entry points (not just accessors).  The workers mix thread
// budgets, backends and timer sinks; BFS levels agree across backends.
TEST(ConcurrentContexts, ColdGraphFirstQueriesRaceSafely) {
  const gb::Graph g = gb::Graph::from_coo(gen_banded(2048, 8, 0.7, 10));
  const Context serial = Context{}.with_threads(1);

  constexpr int kThreads = 8;
  std::vector<algo::BfsResult> results(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      KernelTimeSink sink;
      const Context ctx =
          Context{}
              .with_threads(1 + t % 2)
              .with_backend(t % 4 == 3 ? Backend::kReference : Backend::kBit)
              .with_timer(t % 2 == 0 ? &sink : nullptr);
      results[static_cast<std::size_t>(t)] =
          algo::bfs(ctx, g, {static_cast<vidx_t>(t)});
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    const auto serial_res = algo::bfs(serial, g, {static_cast<vidx_t>(t)});
    EXPECT_EQ(serial_res.levels, results[static_cast<std::size_t>(t)].levels)
        << "source " << t;
  }
}

// ---------------------------------------------------------------------
// Workspace reuse == fresh allocation (satellite: BFS / PR / CC).
// ---------------------------------------------------------------------

TEST(Workspace, ReusedRunsEqualFreshRuns) {
  const gb::Graph g = gb::Graph::from_coo(gen_rmat(9, 6000, 11));
  for (const Backend backend : {Backend::kBit, Backend::kReference}) {
    const Context ctx = Context{}.with_backend(backend);
    algo::Workspace ws;
    algo::BfsResult bfs_out;
    algo::PageRankResult pr_out;
    algo::CcResult cc_out;
    // Several rounds through ONE workspace and ONE result buffer set —
    // dirty scratch from round k must not leak into round k+1, and
    // sources change between rounds.
    for (int round = 0; round < 3; ++round) {
      const auto src = static_cast<vidx_t>(round * 7);
      algo::bfs(ctx, g, {src}, ws, bfs_out);
      EXPECT_EQ(algo::bfs(ctx, g, {src}).levels, bfs_out.levels)
          << backend_name(backend) << " round " << round;
      algo::pagerank(ctx, g, {}, ws, pr_out);
      EXPECT_EQ(algo::pagerank(ctx, g).rank, pr_out.rank)
          << backend_name(backend) << " round " << round;
      algo::connected_components(ctx, g, {}, ws, cc_out);
      EXPECT_EQ(algo::connected_components(ctx, g).component,
                cc_out.component)
          << backend_name(backend) << " round " << round;
    }
  }
}

TEST(Workspace, SurvivesGraphAndDimChanges) {
  // One workspace reused across graphs with different tile dims: the
  // typed slots re-materialize on the type change instead of reading
  // stale buffers.
  algo::Workspace ws;
  algo::BfsResult out;
  const Context ctx;
  for (const int dim : {4, 32, 8}) {
    gb::GraphOptions opts;
    opts.tile_dim = dim;
    const gb::Graph g =
        gb::Graph::from_coo(gen_banded(300 + dim, 5, 0.8, dim), opts);
    algo::bfs(ctx, g, {0}, ws, out);
    EXPECT_EQ(algo::bfs_gold(g.adjacency(), 0), out.levels) << dim;
  }
}

TEST(Workspace, MsBfsAndSeededAlgosReuse) {
  const gb::Graph g = gb::Graph::from_coo(gen_road(24, 24, 0.02, 12));
  const Context ctx = Context{}.with_seed(1234);
  algo::Workspace ws;
  algo::MsBfsResult ms_out;
  const std::vector<vidx_t> sources{0, 5, 100, g.num_vertices() - 1};
  for (int round = 0; round < 2; ++round) {
    algo::msbfs(ctx, g, {sources}, ws, ms_out);
    EXPECT_EQ(algo::msbfs(ctx, g, {sources}).levels, ms_out.levels);
  }
  // Seed rides in the Context: same seed -> same MIS, different seed
  // may differ but must stay valid.
  const auto m1 = algo::maximal_independent_set(ctx, g);
  const auto m2 = algo::maximal_independent_set(ctx, g);
  EXPECT_EQ(m1.in_set, m2.in_set);
  EXPECT_TRUE(algo::is_valid_mis(g.adjacency(), m1.in_set));
  const auto m3 =
      algo::maximal_independent_set(ctx.with_seed(777), g);
  EXPECT_TRUE(algo::is_valid_mis(g.adjacency(), m3.in_set));
}

}  // namespace
}  // namespace bitgb
