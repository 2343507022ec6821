#include "algorithms/msbfs.hpp"

#include "graphblas/ops.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace bitgb::algo {

namespace {

/// Direction choice for the batch (bit backend): push while the rows
/// holding live frontier words occupy fewer than half the tile-rows.
/// The pull sweep costs one pass over every stored tile plus an O(n)
/// store; the push costs only the active tile-rows' tiles — on
/// long-diameter graphs (band / road) the union of 64 thin wavefronts
/// still touches a small fraction of the matrix, and push keeps the
/// whole batched traversal frontier-proportional, exactly as the
/// direction-optimized single-source BFS.
bool use_push(std::size_t active_tile_rows, vidx_t n_tile_rows) {
  return static_cast<vidx_t>(active_tile_rows) < n_tile_rows / 2;
}

/// Reference backend: one reference bfs() per source.  GraphBLAST has
/// no batched BFS kernel, so the framework baseline answers a batch as
/// `batch` direction-optimized single-source runs (the form msbfs_gold
/// takes).  Fills the level matrix, the reach bits of `visited` and
/// `iterations` (the deepest lane); a cancelled batch stops between
/// sources, the lanes run so far kept.
void run_ref_lanes(const Context& ctx, const gb::Graph& g,
                   const std::vector<vidx_t>& sources, Workspace& ws,
                   MsBfsResult& res, FrontierBatch& visited) {
  const auto batch = static_cast<std::size_t>(res.batch);
  auto& lane = ws.slot<BfsResult>("msbfs.ref.lane");
  for (std::size_t b = 0; b < batch; ++b) {
    if (ctx.cancelled()) return;
    bfs(ctx, g, {sources[b]}, ws, lane);
    const FrontierBatch::word_t bit = FrontierBatch::word_t{1} << b;
    for (std::size_t v = 0; v < lane.levels.size(); ++v) {
      const std::int32_t level = lane.levels[v];
      if (level == kUnreached) continue;
      res.levels[v * batch + b] = level;
      visited.rows[v] |= bit;
    }
    res.iterations = std::max(res.iterations, lane.iterations);
  }
}

/// The shared traversal loop.  On return `visited` is the reach
/// bit-matrix (bit (v, b) set iff sources[b] reaches v) — msbfs drops
/// it, batched_reach returns it.
void run_msbfs(const Context& ctx, const gb::Graph& g,
               const std::vector<vidx_t>& sources, Workspace& ws,
               MsBfsResult& res, FrontierBatch& visited) {
  const vidx_t n = g.num_vertices();
  ctx.check_alloc();  // fault-injection hook at the sizing prologue
  auto& frontier = ws.slot<FrontierBatch>("msbfs.frontier");
  frontier.assign_sources(n, sources);  // in-place: reuses the row buffer
  const int batch = frontier.batch;
  visited = frontier;

  res.batch = batch;
  res.iterations = 0;
  res.levels.assign(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(batch),
      kUnreached);
  for (int b = 0; b < batch; ++b) {
    res.levels[static_cast<std::size_t>(sources[static_cast<std::size_t>(b)]) *
                   static_cast<std::size_t>(batch) +
               static_cast<std::size_t>(b)] = 0;
  }
  if (ctx.backend == Backend::kReference) {
    run_ref_lanes(ctx, g, sources, ws, res, visited);
    return;
  }
  auto& next = ws.slot<FrontierBatch>("msbfs.next");
  next.resize(n, batch);

  // Rows currently holding a live frontier word, and their tile-rows
  // (rebuilt per level; both stay frontier-proportional on the push
  // path).
  auto& frontier_rows = ws.slot<std::vector<vidx_t>>("msbfs.frontier_rows");
  frontier_rows.assign(sources.begin(), sources.end());
  std::sort(frontier_rows.begin(), frontier_rows.end());
  frontier_rows.erase(
      std::unique(frontier_rows.begin(), frontier_rows.end()),
      frontier_rows.end());
  auto& touched = ws.slot<std::vector<vidx_t>>("msbfs.touched");
  auto& active_tr = ws.slot<std::vector<vidx_t>>("msbfs.active_tr");
  touched.clear();
  const int dim = g.tile_dim();
  const vidx_t n_tile_rows = (n + dim - 1) / dim;

  std::int32_t level = 0;
  while (!frontier_rows.empty()) {
    // Level boundary: fault hook, then the cooperative-cancellation
    // poll — an expired wave stops here with the levels (and the
    // visited/reach matrix) it has scattered so far; res.iterations
    // counts completed levels only.
    ctx.check_kernel();
    if (ctx.cancelled()) return;
    ++level;
    touched.clear();
    // One batched expansion per level: every live frontier advances one
    // hop.  The pull consumes A^T (vxm(f, A) == mxv(A^T, f)); the push
    // consumes A itself and costs only the active tile-rows.
    active_tr.clear();
    for (const vidx_t v : frontier_rows) active_tr.push_back(v / dim);
    std::sort(active_tr.begin(), active_tr.end());
    active_tr.erase(std::unique(active_tr.begin(), active_tr.end()),
                    active_tr.end());
    if (use_push(active_tr.size(), n_tile_rows)) {
      KernelTimerScope timer(ctx.timer);
      dispatch_tile_dim(dim, [&]<int Dim>() {
        bmm_frontier_push_masked(g.packed().as<Dim>(), frontier, active_tr,
                                 visited, /*complement=*/true, next, touched);
        return 0;
      });
    } else {
      dispatch_tile_dim(dim, [&]<int Dim>() {
        gb::bit_mxm_frontier_masked<Dim>(ctx, g.packed_t().as<Dim>(), frontier,
                                         visited, next);
        return 0;
      });
      for (vidx_t v = 0; v < n; ++v) {
        if (next.rows[static_cast<std::size_t>(v)] != 0) touched.push_back(v);
      }
    }

    // Scatter the newly reached (vertex, lane) pairs, fold them into
    // visited, and rotate next into frontier — clearing only the rows
    // that are actually dirty, so a sparse level stays sparse-priced.
    for (const vidx_t v : frontier_rows) {
      frontier.rows[static_cast<std::size_t>(v)] = 0;
    }
    for (const vidx_t v : touched) {
      const FrontierBatch::word_t w = next.rows[static_cast<std::size_t>(v)];
      next.rows[static_cast<std::size_t>(v)] = 0;
      frontier.rows[static_cast<std::size_t>(v)] = w;
      visited.rows[static_cast<std::size_t>(v)] |= w;
      for_each_set_bit(w, [&](int b) {
        res.levels[static_cast<std::size_t>(v) *
                       static_cast<std::size_t>(batch) +
                   static_cast<std::size_t>(b)] = level;
      });
    }
    std::swap(frontier_rows, touched);
    if (!frontier_rows.empty()) res.iterations = level;
  }
}

}  // namespace

void msbfs(const Context& ctx, const gb::Graph& g, const MsBfsParams& params,
           Workspace& ws, MsBfsResult& out) {
  auto& visited = ws.slot<FrontierBatch>("msbfs.visited");
  run_msbfs(ctx, g, params.sources, ws, out, visited);
}

MsBfsResult msbfs(const Context& ctx, const gb::Graph& g,
                  const MsBfsParams& params) {
  Workspace ws;
  MsBfsResult out;
  msbfs(ctx, g, params, ws, out);
  return out;
}

const FrontierBatch& batched_reach(const Context& ctx, const gb::Graph& g,
                                   const std::vector<vidx_t>& sources,
                                   Workspace& ws) {
  auto& res = ws.slot<MsBfsResult>("msbfs.reach_res");
  auto& visited = ws.slot<FrontierBatch>("msbfs.visited");
  run_msbfs(ctx, g, sources, ws, res, visited);
  return visited;
}

FrontierBatch batched_reach(const Context& ctx, const gb::Graph& g,
                            const std::vector<vidx_t>& sources) {
  Workspace ws;
  return batched_reach(ctx, g, sources, ws);
}

void scatter_levels(const MsBfsResult& res, int first,
                    std::span<std::vector<std::int32_t>* const> outs) {
  const std::size_t lanes = outs.size();
  assert(lanes >= 1 && lanes <= static_cast<std::size_t>(kScatterLanes));
  assert(first >= 0 && first + static_cast<int>(lanes) <= res.batch);
  const auto batch = static_cast<std::size_t>(res.batch);
  const std::size_t n = batch == 0 ? 0 : res.levels.size() / batch;
  std::array<std::int32_t*, kScatterLanes> dst{};
  for (std::size_t k = 0; k < lanes; ++k) {
    outs[k]->resize(n);
    dst[k] = outs[k]->data();
  }
  const std::int32_t* row = res.levels.data() + static_cast<std::size_t>(first);
  for (std::size_t v = 0; v < n; ++v, row += batch) {
    for (std::size_t k = 0; k < lanes; ++k) dst[k][v] = row[k];
  }
}

void scatter_reached(const FrontierBatch& reach, int b,
                     std::vector<std::uint8_t>& out) {
  const auto n = static_cast<std::size_t>(reach.n);
  out.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    out[v] = static_cast<std::uint8_t>(get_bit(reach.rows[v], b));
  }
}

std::vector<std::int32_t> msbfs_gold(const Csr& a,
                                     const std::vector<vidx_t>& sources) {
  const auto batch = sources.size();
  std::vector<std::int32_t> levels(static_cast<std::size_t>(a.nrows) * batch,
                                   kUnreached);
  for (std::size_t b = 0; b < batch; ++b) {
    const auto col = bfs_gold(a, sources[b]);
    for (vidx_t v = 0; v < a.nrows; ++v) {
      levels[static_cast<std::size_t>(v) * batch + b] =
          col[static_cast<std::size_t>(v)];
    }
  }
  return levels;
}

}  // namespace bitgb::algo
