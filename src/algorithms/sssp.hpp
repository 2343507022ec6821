// Single-Source Shortest Path — tropical min-plus semiring (paper §V).
//
// GraphBLAS Bellman-Ford: each round relaxes dist = min(dist,
// vxm(dist, A)), i.e. the pull mxv(A^T, dist) through
// bmv_bin_full_full<MinPlus> over A^T — 0s of the matrix act as
// +infinity (unreachable), set bits contribute dist[u] + 1 (unit
// weights: the homogeneous graphs the paper targets carry no weights).
// Distances run along edge direction, from the source.  Rounds stop
// when no distance improves (at most |V|-1 rounds).
//
// Frontier rounds, as in GraphBLAST's SSSP: only a vertex with an
// in-neighbour whose distance changed in the previous round can
// improve.  While fewer than n / gb::kPushPullDenominator vertices
// changed (BFS's direction rule), a round pushes the changed set
// through A (Boolean, nothing masked) to find those candidate rows and
// relaxes only them: the bit backend through the candidate-masked pull,
// which skips every tile-row the mask closes (§V), the reference
// backend row by row.  A denser changed set runs the full pull.  Every
// round yields exactly the dense Bellman-Ford iterate, so `dist` and
// `iterations` do not depend on the direction taken.
#pragma once

#include "algorithms/workspace.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"

#include <vector>

namespace bitgb::algo {

struct SsspParams {
  vidx_t source = 0;
};

struct SsspResult {
  std::vector<value_t> dist;  ///< +inf where unreachable
  int iterations = 0;
};

/// Zero-allocation form: scratch lives in `ws`, result buffers reuse
/// `out`'s capacity.  Throws std::invalid_argument, leaving `out` as it
/// was, unless params.source is in [0, num_vertices()).
void sssp(const Context& ctx, const gb::Graph& g, const SsspParams& params,
          Workspace& ws, SsspResult& out);

/// Convenience form (allocates internally).
[[nodiscard]] SsspResult sssp(const Context& ctx, const gb::Graph& g,
                              const SsspParams& params);

/// Serial Bellman-Ford gold reference over unit weights: the tests'
/// oracle, which no library code calls.
[[nodiscard]] std::vector<value_t> sssp_gold(const Csr& a, vidx_t source);

}  // namespace bitgb::algo
