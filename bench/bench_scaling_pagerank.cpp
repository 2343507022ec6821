// Scaling study: where the bandwidth story kicks in.
//
// The paper's full-precision-vector gains (SSSP/PR/CC, Tables VII/VIII)
// are driven by memory bandwidth: B2SR moves ~32x less matrix data than
// float CSR, which matters exactly when the matrix exceeds the cache.
// The named-analog tables run at cache-resident sizes where that effect
// vanishes (EXPERIMENTS.md discusses this), so this bench sweeps the
// matrix size across the cache boundary and reports the PR (10
// iterations, paper parameters) backend ratio per size: the bit
// backend's relative performance should improve as CSR outgrows the
// cache — the host-side analog of the paper's bandwidth argument.
#include "algorithms/pagerank.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"
#include "platform/timer.hpp"
#include "sparse/convert.hpp"
#include "sparse/generators.hpp"

#include <cstdio>

int main() {
  using namespace bitgb;

  const Context bit_ctx;
  const Context ref_ctx = bit_ctx.with_backend(Backend::kReference);

  std::printf("== scaling: PageRank (10 iters) vs matrix size ==\n");
  std::printf("%-10s %12s %12s %12s %12s %9s\n", "n", "nnz", "CSR(MB)",
              "ref (ms)", "bit (ms)", "ratio");

  for (const vidx_t n : {8192, 32768, 131072, 262144}) {
    gb::GraphOptions opts;
    opts.tile_dim = 8;  // bands pack best at 8 (Figure 5b)
    const gb::Graph g =
        gb::Graph::from_coo(gen_banded(n, 12, 0.8, 42), opts);
    (void)g.packed_t();
    (void)g.unit_adjacency_t();
    (void)g.degrees();

    const double t_ref = time_avg_ms(
        [&] { (void)algo::pagerank(ref_ctx, g); }, 3);
    const double t_bit = time_avg_ms(
        [&] { (void)algo::pagerank(bit_ctx, g); }, 3);

    std::printf("%-10d %12lld %12.1f %12.2f %12.2f %8.2fx\n", n,
                static_cast<long long>(g.num_edges()),
                static_cast<double>(g.unit_adjacency_t().storage_bytes()) /
                    (1024.0 * 1024.0),
                t_ref, t_bit, t_ref / t_bit);
  }
  std::printf("\n(expected shape: the ratio rises with size — once the "
              "float CSR outgrows the cache, B2SR's ~32x smaller matrix "
              "stream wins the bandwidth it was designed to save)\n");
  return 0;
}
