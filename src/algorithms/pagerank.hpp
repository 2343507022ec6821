// PageRank — arithmetic semiring (paper §V).
//
// Per iteration the rank vector is multiplied by the column-stochastic
// adjacency matrix.  The paper keeps the matrix binary and divides each
// contribution by the source vertex's out-degree through an auxiliary
// v_out_degree vector; this implementation folds the divide into a
// pre-scaled vector (x[j] = pr[j] / outdeg[j]) before the mxv — the
// same arithmetic, one pass earlier.  Dangling vertices redistribute
// their mass uniformly.  Paper parameters (§VI-A): max 10 iterations,
// alpha = 0.85, epsilon = 1e-9.
#pragma once

#include "algorithms/workspace.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"

#include <vector>

namespace bitgb::algo {

struct PageRankParams {
  int max_iterations = 10;   ///< paper §VI-A
  value_t alpha = 0.85f;     ///< paper §VI-A
  double epsilon = 1e-9;     ///< paper §VI-A ("pdfilon")
};

struct PageRankResult {
  std::vector<value_t> rank;
  int iterations = 0;
};

/// Zero-allocation form: scratch lives in `ws`, result buffers reuse
/// `out`'s capacity.
void pagerank(const Context& ctx, const gb::Graph& g,
              const PageRankParams& params, Workspace& ws,
              PageRankResult& out);

/// Convenience form (allocates internally).
[[nodiscard]] PageRankResult pagerank(const Context& ctx, const gb::Graph& g,
                                      const PageRankParams& params = {});

/// Serial gold reference: identical formula, no framework machinery.
/// The tests' oracle; no library code calls it.
[[nodiscard]] std::vector<value_t> pagerank_gold(
    const Csr& a, const PageRankParams& params = {});

}  // namespace bitgb::algo
