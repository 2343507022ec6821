// Quickstart: the smallest end-to-end tour of the public API.
//
//   $ ./quickstart
//
// The three nouns of the API:
//   * Graph     — a lazy, thread-safe multi-format handle over one
//                 adjacency matrix (CSR now, transposes / B2SR packed
//                 forms materialize on first use or via prewarm());
//   * Context   — the execution descriptor each call carries: backend,
//                 thread budget, timer sink, RNG seed.  No globals, no
//                 environment reads (Context::from_env() is opt-in
//                 sugar); the kernels' SIMD body is picked by CPUID;
//   * Workspace — optional caller-owned scratch, for query loops that
//                 want zero steady-state allocations.
#include "algorithms/bfs.hpp"
#include "core/stats.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"
#include "sparse/generators.hpp"

#include <cstdio>

int main() {
  using namespace bitgb;

  // 1. A graph: 64x64 grid road network (4096 vertices).
  const Coo edges = gen_road(64, 64, /*rewire=*/0.01, /*seed=*/42);

  // 2. Wrap it.  GraphOptions{} defers the B2SR tile-size choice to the
  //    sampling profiler (paper Algorithm 1), run at first use.
  const gb::Graph g = gb::Graph::from_coo(edges);
  std::printf("graph: %d vertices, %lld edges\n", g.num_vertices(),
              static_cast<long long>(g.num_edges()));

  // 3. An execution descriptor.  Context{} = bit backend, all
  //    hardware threads.  Everything is a plain field:
  //    Context{.backend = Backend::kReference, .threads = 1} pins a
  //    serial baseline run, and the fluent with_*() copies compose.
  const Context ctx;

  // 4. BFS from vertex 0.  The first bit-backend call triggers the
  //    lazy tile-dim sampling + B2SR packing; formats() shows what got
  //    materialized (a server would call g.prewarm(gb::kBitFormats)
  //    up front instead).
  const auto res = algo::bfs(ctx, g, {.source = 0});
  std::printf("auto-picked tile size %dx%d; formats mask after the run: "
              "0x%03x\n",
              g.tile_dim(), g.tile_dim(), g.formats());

  int reached = 0;
  int max_level = 0;
  for (const auto lvl : res.levels) {
    if (lvl != algo::kUnreached) {
      ++reached;
      max_level = std::max(max_level, static_cast<int>(lvl));
    }
  }
  std::printf("BFS from 0: reached %d/%d vertices in %d iterations "
              "(eccentricity %d)\n",
              reached, g.num_vertices(), res.iterations, max_level);

  // 5. A serving loop reuses a Workspace and a Result: after the first
  //    call, no allocations happen per query.
  algo::Workspace ws;
  algo::BfsResult out;
  for (vidx_t s = 0; s < 4; ++s) {
    algo::bfs(ctx, g, {.source = s}, ws, out);
    std::printf("  bfs(%d): %d iterations\n", s, out.iterations);
  }

  // 6. Storage: B2SR vs 32-bit float CSR (the paper's §VI-B metric).
  const auto fps = all_footprints(g.adjacency());
  std::printf("\n%-8s %14s %16s\n", "tile", "B2SR bytes", "vs float CSR");
  for (const auto& fp : fps) {
    std::printf("%2dx%-5d %14zu %15.1f%%\n", fp.dim, fp.dim, fp.b2sr_bytes,
                fp.compression_pct);
  }
  return 0;
}
