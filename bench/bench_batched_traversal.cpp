// Batched multi-source traversal: one 64-lane msbfs wave vs 64
// sequential single-source runs from the same sources.
//
// The batch engine packs up to 64 frontiers into the bit-columns of a
// FrontierBatch, so one B2SR sweep per level expands all of them.  This
// harness measures, per generator-corpus graph:
//
//   bit seq     — 64 sequential single-source bfs() runs, bit backend
//   bit batched — one msbfs() over the same 64 sources, bit backend
//   ref seq     — msbfs() on the reference backend, which is 64
//                 sequential reference bfs() runs: GraphBLAST has no
//                 batched BFS kernel, so this is the framework's cost
//                 for the same batch
//
// and prints the bit seq / bit batched speedup per graph plus the
// overall geometric mean.  Sources are the same evenly spaced batch the
// Tables VII/VIII MSBFS row uses (benchlib batch_sources).  Before
// timing, each graph's bit wave is checked once against the reference
// wave (its 64 reference bfs runs): a level matrix or `iterations`
// that differs fails the run (exit 1).
//
// Expected shape: the wave wins where the 64 wavefronts overlap tiles
// (scale-free, grid and hybrid graphs), and loses on a long-diameter
// band graph with evenly spread sources, whose disjoint wavefronts give
// the batch nothing to amortize while each single-source BFS stays on
// its word-granular active-list push.  The band row is kept as the
// honest worst case.
#include "algorithms/bfs.hpp"
#include "algorithms/msbfs.hpp"
#include "platform/context.hpp"
#include "benchlib/algo_table.hpp"
#include "benchlib/reporting.hpp"
#include "platform/timer.hpp"
#include "sparse/convert.hpp"
#include "sparse/generators.hpp"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

int main() {
  using namespace bitgb;

  const Context bit_ctx;  // bit backend, hardware threads
  const Context ref_ctx = bit_ctx.with_backend(Backend::kReference);

  const std::vector<std::pair<std::string, Coo>> graphs = {
      {"rmat_s12", gen_rmat(12, 32768, 1)},
      {"road_64x64", gen_road(64, 64, 0.01, 2)},
      {"band_4096", gen_banded(4096, 8, 0.6, 3)},
      {"hybrid_2048", gen_hybrid(2048, 4)},
  };

  std::printf("Batched multi-source traversal: 64-source msbfs vs 64 "
              "sequential bfs (ms, avg of %d)\n\n",
              kRunsPerMeasurement);
  std::printf("%-12s %10s %12s %12s %12s %9s\n", "graph", "verts",
              "bit seq", "bit batched", "ref seq", "speedup");

  std::vector<double> speedups;
  for (const auto& [name, edges] : graphs) {
    const gb::Graph g = gb::Graph::from_coo(edges);
    (void)g.packed_t();      // warm the one-time conversions
    (void)g.adjacency_t();
    const std::vector<vidx_t> sources = bench::batch_sources(g.num_vertices());
    const auto bit_wave = algo::msbfs(bit_ctx, g, {sources});
    const auto ref_wave = algo::msbfs(ref_ctx, g, {sources});
    if (bit_wave.levels != ref_wave.levels ||
        bit_wave.iterations != ref_wave.iterations) {
      std::fprintf(stderr,
                   "FAIL: %s: the bit wave differs from 64 reference bfs "
                   "runs\n",
                   name.c_str());
      return 1;
    }

    const double seq_ms = time_avg_ms([&] {
      for (const vidx_t s : sources) {
        (void)algo::bfs(bit_ctx, g, {s});
      }
    });
    const double batched_ms = time_avg_ms(
        [&] { (void)algo::msbfs(bit_ctx, g, {sources}); });
    const double ref_seq_ms = time_avg_ms(
        [&] { (void)algo::msbfs(ref_ctx, g, {sources}); });

    const double speedup = batched_ms > 0.0 ? seq_ms / batched_ms : 0.0;
    speedups.push_back(speedup);
    std::printf("%-12s %10d %12.3f %12.3f %12.3f %8.1fx\n", name.c_str(),
                g.num_vertices(), seq_ms, batched_ms, ref_seq_ms,
                speedup);
  }

  std::printf("\ngeomean sequential/batched speedup: %.1fx\n",
              bench::geomean(speedups));
  return 0;
}
