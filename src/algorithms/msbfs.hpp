// Multi-source BFS — the batched traversal engine's flagship algorithm.
//
// Up to 64 BFS traversals run concurrently, their frontiers packed as
// the bit-columns of a FrontierBatch.  On the bit backend each level
// expands the whole batch at once: ONE masked BMM sweep over the B2SR
// tiles of A^T, or a push over the active tile-rows of A while the
// frontiers are thin — the same §V output-store masking as
// single-source BFS, lifted from a bit vector to a bit matrix.  One
// traversal of the adjacency structure is thereby amortized across the
// whole batch.  A level is priced by what its frontiers and open mask
// need: the active tile-rows are marked in a bitmap and read back in
// order, the push/pull choice weighs their tiles against the stored
// ones (wave_level_pushes), and the pull skips every tile-row that no
// live lane still has open (bmm_frontier_masked).
//
// The reference backend answers a batch with one reference bfs() per
// source.  GraphBLAST (PAPERS.md) has no batched BFS kernel, so N
// direction-optimized single-source runs are the framework baseline
// the bit engine is measured against (Tables VII/VIII MSBFS row,
// bench_batched_traversal).
//
// Output: the level *matrix* — levels[v * batch + b] is the BFS level
// of vertex v from sources[b] (0 at the source, kUnreached if never
// visited), bit-for-bit equal to `batch` independent single-source
// bfs() runs on either backend.
#pragma once

#include "algorithms/bfs.hpp"
#include "algorithms/workspace.hpp"
#include "core/frontier_batch.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace bitgb::algo {

struct MsBfsParams {
  std::vector<vidx_t> sources;  ///< 1..64 start vertices
};

struct MsBfsResult {
  std::vector<std::int32_t> levels;  ///< n * batch, row-major by vertex
  int batch = 0;
  int iterations = 0;  ///< deepest non-empty level across the batch
                       ///< (the largest single-source bfs iterations)

  /// Level of vertex v in the traversal from sources[b].
  [[nodiscard]] std::int32_t level(vidx_t v, int b) const {
    return levels[static_cast<std::size_t>(v) *
                      static_cast<std::size_t>(batch) +
                  static_cast<std::size_t>(b)];
  }
};

/// The direction rule of one bit-backend wave level: push over A's
/// active tile-rows while their tiles stay below a third of the stored
/// tiles, else pull over A^T.  A push pays per tile of an active
/// tile-row, a pull per stored tile of a tile-row some live lane still
/// has open.  Measured per level at 1 thread on 13 graphs (the serving
/// graphs and Table VII analogs), a pushed tile costs 4-8x a pulled
/// one at dim 4 and 1.2-7x at dims 8-16, so the break-even share runs
/// from ~15% to ~80% of the tiles; one third gives the least summed
/// kernel time over those graphs (CHANGES.md has the table).
[[nodiscard]] constexpr bool wave_level_pushes(eidx_t active_tiles,
                                               eidx_t stored_tiles) {
  return active_tiles * 3 < stored_tiles;
}

/// Lanes one scatter_levels call fills: 16 int32 levels are one
/// 64-byte line of a level-matrix row.
inline constexpr int kScatterLanes = 16;

/// Batched BFS from 1..64 sources (throws std::invalid_argument on an
/// empty or oversized batch, or an out-of-range source).  Zero-
/// allocation form: scratch lives in `ws`, result buffers reuse `out`'s
/// capacity.
void msbfs(const Context& ctx, const gb::Graph& g, const MsBfsParams& params,
           Workspace& ws, MsBfsResult& out);

/// Convenience form (allocates internally).
[[nodiscard]] MsBfsResult msbfs(const Context& ctx, const gb::Graph& g,
                                const MsBfsParams& params);

/// Batched reachability: bit b of row v answers "does sources[b] reach
/// v?" (a source reaches itself).  This is msbfs's visited matrix,
/// from the same levels run without the level matrix.
[[nodiscard]] FrontierBatch batched_reach(const Context& ctx,
                                          const gb::Graph& g,
                                          const std::vector<vidx_t>& sources);

/// Workspace form: the returned reference points into `ws` and stays
/// valid until the next msbfs/batched_reach call on that workspace —
/// the zero-copy form a serving reach wave scatters from.
const FrontierBatch& batched_reach(const Context& ctx, const gb::Graph& g,
                                   const std::vector<vidx_t>& sources,
                                   Workspace& ws);

/// Scatter columns [first, first + outs.size()) of the level matrix
/// into bfs()-shaped level vectors (*outs[k] gets column first + k,
/// reusing its capacity), 1..kScatterLanes of them in one row-major
/// pass: each row's lanes are read as one contiguous run, so a wave
/// pays one read of the level matrix per lane group rather than one
/// per column.  The only column extraction there is — the serving
/// auto-batcher calls it once per group of coalesced queries.
void scatter_levels(const MsBfsResult& res, int first,
                    std::span<std::vector<std::int32_t>* const> outs);

/// Scatter reach column b of a batched_reach bit-matrix into a dense
/// byte vector: out[v] = 1 iff sources[b] reaches v.
void scatter_reached(const FrontierBatch& reach, int b,
                     std::vector<std::uint8_t>& out);

/// Gold reference: `batch` independent serial queue-BFS runs, assembled
/// into the same row-major level matrix.  The tests' oracle; no library
/// code calls it.
[[nodiscard]] std::vector<std::int32_t> msbfs_gold(
    const Csr& a, const std::vector<vidx_t>& sources);

}  // namespace bitgb::algo
