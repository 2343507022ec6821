// Connected Components — FastSV over the tropical min semiring
// (paper §V, following GraphBLAST's adoption of the FastSV
// linear-algebraic CC algorithm of Zhang, Azad & Buluc).
//
// Each vertex carries a parent label f; per round:
//   1. mngf[u]  = min over neighbours v of gf[v]      (mxv, min)
//   2. stochastic hooking:  f[f[u]] <- min(f[f[u]], mngf[u])
//   3. aggressive hooking:  f[u]    <- min(f[u], mngf[u])
//   4. shortcutting:        f[u]    <- min(f[u], f[f[u]])
//   5. gf = f[f];  repeat until f stops changing.
//
// Labels are carried in the float vector the mxv operates on; float
// holds every vertex id below 2^24 exactly, far above the corpus sizes.
// A graph of kCcVertexLimit (2^24) or more vertices is refused with
// std::length_error on both backends before anything is sized (a
// serving components query on it resolves kInternalError).
#pragma once

#include "algorithms/workspace.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"

#include <vector>

namespace bitgb::algo {

/// connected_components throws std::length_error on a graph with this
/// many vertices or more: beyond it the float labels round.
inline constexpr vidx_t kCcVertexLimit = vidx_t{1} << 24;

struct CcParams {};

struct CcResult {
  std::vector<vidx_t> component;  ///< min vertex id of each component
  int iterations = 0;  ///< FastSV rounds, the last one changing nothing
};

/// Zero-allocation form: scratch lives in `ws`, result buffers reuse
/// `out`'s capacity.
void connected_components(const Context& ctx, const gb::Graph& g,
                          const CcParams& params, Workspace& ws,
                          CcResult& out);

/// Convenience form (allocates internally).
[[nodiscard]] CcResult connected_components(const Context& ctx,
                                            const gb::Graph& g,
                                            const CcParams& params = {});

/// Union-find gold reference: the tests' oracle, which no library code
/// calls.
[[nodiscard]] std::vector<vidx_t> cc_gold(const Csr& a);

}  // namespace bitgb::algo
