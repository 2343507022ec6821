#include "algorithms/msbfs.hpp"

#include "graphblas/ops.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace bitgb::algo {

namespace {

/// Reference backend: one reference bfs() per source.  GraphBLAST has
/// no batched BFS kernel, so the framework baseline answers a batch as
/// `batch` direction-optimized single-source runs (the form msbfs_gold
/// takes).  Fills the reach bits of `visited`, and the level matrix and
/// `iterations` (the deepest lane) when `res` is non-null; a cancelled
/// batch stops between sources, the lanes run so far kept.
void run_ref_lanes(const Context& ctx, const gb::Graph& g,
                   const std::vector<vidx_t>& sources, Workspace& ws,
                   MsBfsResult* res, FrontierBatch& visited) {
  const auto batch = sources.size();
  auto& lane = ws.slot<BfsResult>("msbfs.ref.lane");
  for (std::size_t b = 0; b < batch; ++b) {
    if (ctx.cancelled()) return;
    bfs(ctx, g, {sources[b]}, ws, lane);
    const FrontierBatch::word_t bit = FrontierBatch::word_t{1} << b;
    for (std::size_t v = 0; v < lane.levels.size(); ++v) {
      const std::int32_t level = lane.levels[v];
      if (level == kUnreached) continue;
      visited.rows[v] |= bit;
      if (res != nullptr) res->levels[v * batch + b] = level;
    }
    if (res != nullptr) {
      res->iterations = std::max(res->iterations, lane.iterations);
    }
  }
}

/// Bit backend: one batched expansion per level, every live frontier
/// advancing one hop.  The push consumes A and costs the tiles of the
/// active tile-rows; the pull consumes A^T (vxm(f, A) == mxv(A^T, f))
/// and costs the tile-rows some live lane still has open.
template <int Dim>
void run_bit_levels(const Context& ctx, const gb::Graph& g,
                    const std::vector<vidx_t>& sources, Workspace& ws,
                    FrontierBatch& frontier, MsBfsResult* res,
                    FrontierBatch& visited) {
  const B2srT<Dim>& a = g.packed().as<Dim>();
  const vidx_t n = frontier.n;
  const auto batch = static_cast<std::size_t>(frontier.batch);
  auto& next = ws.slot<FrontierBatch>("msbfs.next");
  next.resize(n, frontier.batch);

  // Rows currently holding a live frontier word (a duplicate source
  // is listed twice, which every use below tolerates), and a bitmap
  // over tile-rows the level marks them in: reading the marks back in
  // word order lists the active tile-rows sorted, with no sort.
  auto& frontier_rows = ws.slot<std::vector<vidx_t>>("msbfs.frontier_rows");
  frontier_rows.assign(sources.begin(), sources.end());
  auto& touched = ws.slot<std::vector<vidx_t>>("msbfs.touched");
  auto& active_tr = ws.slot<std::vector<vidx_t>>("msbfs.active_tr");
  auto& marks = ws.slot<std::vector<std::uint64_t>>("msbfs.marks");
  marks.assign((static_cast<std::size_t>(a.n_tile_rows()) + 63) / 64, 0);
  const vidx_t* rowptr = a.tile_rowptr.data();
  const eidx_t stored_tiles = a.nnz_tiles();

  std::int32_t level = 0;
  while (!frontier_rows.empty()) {
    // Level boundary: fault hook, then the cooperative-cancellation
    // poll — an expired wave stops here with the levels (and the
    // visited/reach matrix) it has scattered so far; iterations counts
    // completed levels only.
    ctx.check_kernel();
    if (ctx.cancelled()) return;
    ++level;
    for (const vidx_t v : frontier_rows) {
      const auto tr = static_cast<std::size_t>(v / Dim);
      marks[tr / 64] |= std::uint64_t{1} << (tr % 64);
    }
    active_tr.clear();
    eidx_t active_tiles = 0;
    for (std::size_t k = 0; k < marks.size(); ++k) {
      for_each_set_bit(marks[k], [&](int i) {
        const auto tr =
            static_cast<vidx_t>(k * 64 + static_cast<std::size_t>(i));
        active_tr.push_back(tr);
        active_tiles += rowptr[tr + 1] - rowptr[tr];
      });
      marks[k] = 0;
    }
    touched.clear();
    if (wave_level_pushes(active_tiles, stored_tiles)) {
      KernelTimerScope timer(ctx.timer);
      bmm_frontier_push_masked(a, frontier, active_tr, visited, next,
                               touched);
    } else {
      gb::bit_mxm_frontier_masked<Dim>(ctx, g.packed_t().as<Dim>(), frontier,
                                       visited, next);
      // List the non-zero rows with no branch per row, as bfs does.
      touched.resize(static_cast<std::size_t>(n));
      std::size_t live = 0;
      for (vidx_t v = 0; v < n; ++v) {
        touched[live] = v;
        live += next.rows[static_cast<std::size_t>(v)] != 0 ? 1 : 0;
      }
      touched.resize(live);
    }

    // Scatter the newly reached (vertex, lane) pairs, fold them into
    // visited, and rotate next into frontier — clearing only the rows
    // that are actually dirty, so a sparse level stays sparse-priced.
    for (const vidx_t v : frontier_rows) {
      frontier.rows[static_cast<std::size_t>(v)] = 0;
    }
    for (const vidx_t v : touched) {
      const auto i = static_cast<std::size_t>(v);
      const FrontierBatch::word_t w = next.rows[i];
      next.rows[i] = 0;
      frontier.rows[i] = w;
      visited.rows[i] |= w;
      if (res == nullptr) continue;
      for_each_set_bit(w, [&](int b) {
        res->levels[i * batch + static_cast<std::size_t>(b)] = level;
      });
    }
    std::swap(frontier_rows, touched);
    if (res != nullptr && !frontier_rows.empty()) res->iterations = level;
  }
}

/// The shared traversal.  On return `visited` is the reach bit-matrix
/// (bit (v, b) set iff sources[b] reaches v); the level matrix and
/// iterations go to `res` unless it is null — batched_reach wants the
/// reach bits alone and keeps no level matrix.
void run_msbfs(const Context& ctx, const gb::Graph& g,
               const std::vector<vidx_t>& sources, Workspace& ws,
               MsBfsResult* res, FrontierBatch& visited) {
  const vidx_t n = g.num_vertices();
  ctx.check_alloc();  // fault-injection hook at the sizing prologue
  auto& frontier = ws.slot<FrontierBatch>("msbfs.frontier");
  frontier.assign_sources(n, sources);  // in-place: reuses the row buffer
  visited = frontier;
  if (res != nullptr) {
    const auto batch = static_cast<std::size_t>(frontier.batch);
    res->batch = frontier.batch;
    res->iterations = 0;
    res->levels.assign(static_cast<std::size_t>(n) * batch, kUnreached);
    for (std::size_t b = 0; b < batch; ++b) {
      res->levels[static_cast<std::size_t>(sources[b]) * batch + b] = 0;
    }
  }
  if (ctx.backend == Backend::kReference) {
    run_ref_lanes(ctx, g, sources, ws, res, visited);
    return;
  }
  dispatch_tile_dim(g.tile_dim(), [&]<int Dim>() {
    run_bit_levels<Dim>(ctx, g, sources, ws, frontier, res, visited);
    return 0;
  });
}

}  // namespace

void msbfs(const Context& ctx, const gb::Graph& g, const MsBfsParams& params,
           Workspace& ws, MsBfsResult& out) {
  auto& visited = ws.slot<FrontierBatch>("msbfs.visited");
  run_msbfs(ctx, g, params.sources, ws, &out, visited);
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
  auto& visited = ws.slot<FrontierBatch>("msbfs.visited");
  run_msbfs(ctx, g, sources, ws, nullptr, visited);
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
