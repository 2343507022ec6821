// Breadth-First Search — Boolean semiring (paper §V).
//
// Per iteration, vxm() expands the frontier one hop; the visited mask is
// applied to drop already-seen vertices.  The bit backend pushes sparse
// frontiers through the active-list bmv_bin_bin_bin_push_masked and
// pulls dense ones through bmv_bin_bin_bin_masked.  The pull skips a
// tile-row the visited mask has closed whole, and stops an open one
// once each of its open rows has a parent in the frontier; the
// tile-row stops as a whole, with no per-row exit (§V explains one
// would diverge the warp that owns a tile-row).  Before its first pull
// it closes the vertices no edge reaches (gb::Graph::no_in_edges,
// cached per graph), which stay kUnreached either way but would hold
// their tile-rows open to the last tile.  The reference backend is the
// GraphBLAST-style direction-optimized push/pull with a per-row early
// exit.
//
// API shape (all algorithms follow it): `Result run(const Context&,
// const Graph&, Params)`, plus a Workspace + out-parameter overload
// that reuses scratch and result capacity so steady-state queries make
// zero heap allocations.
//
// Output: BFS level per vertex (0 for the source), kUnreached if never
// visited.
#pragma once

#include "algorithms/workspace.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"

#include <cstdint>
#include <vector>

namespace bitgb::algo {

inline constexpr std::int32_t kUnreached = -1;

struct BfsParams {
  vidx_t source = 0;
};

struct BfsResult {
  std::vector<std::int32_t> levels;
  int iterations = 0;
};

/// Zero-allocation form: scratch lives in `ws`, result buffers reuse
/// `out`'s capacity.  Throws std::invalid_argument, leaving `out` as it
/// was, unless params.source is in [0, num_vertices()).
void bfs(const Context& ctx, const gb::Graph& g, const BfsParams& params,
         Workspace& ws, BfsResult& out);

/// Convenience form (allocates internally).
[[nodiscard]] BfsResult bfs(const Context& ctx, const gb::Graph& g,
                            const BfsParams& params);

/// Serial gold reference (queue BFS): the tests' oracle, which only
/// msbfs_gold calls.
[[nodiscard]] std::vector<std::int32_t> bfs_gold(const Csr& a, vidx_t source);

}  // namespace bitgb::algo
