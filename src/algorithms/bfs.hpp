// Breadth-First Search — Boolean semiring (paper §V).
//
// Per iteration, vxm() expands the frontier one hop; the visited mask is
// applied to drop already-seen vertices.  The bit backend pushes sparse
// frontiers through the active-list bmv_bin_bin_bin_push_masked and
// pulls dense ones through bmv_bin_bin_bin_masked.  The pull skips a
// tile-row the visited mask has closed whole; inside an open row the
// mask is AND-ed at the output store (no per-row early exit — §V
// explains it would diverge the warp that owns a tile-row).  The
// reference backend is the GraphBLAST-style direction-optimized
// push/pull with early exit.
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
/// `out`'s capacity.
void bfs(const Context& ctx, const gb::Graph& g, const BfsParams& params,
         Workspace& ws, BfsResult& out);

/// Convenience form (allocates internally).
[[nodiscard]] BfsResult bfs(const Context& ctx, const gb::Graph& g,
                            const BfsParams& params);

/// Serial gold reference (queue BFS) for validation.
[[nodiscard]] std::vector<std::int32_t> bfs_gold(const Csr& a, vidx_t source);

}  // namespace bitgb::algo
