#include "algorithms/bfs.hpp"

#include "graphblas/ops.hpp"

#include <deque>

namespace bitgb::algo {

namespace {

template <int Dim>
void bfs_bit(const Context& ctx, const gb::Graph& g, vidx_t source,
             Workspace& ws, BfsResult& res) {
  const auto& a = g.packed().as<Dim>();
  const auto& at = g.packed_t().as<Dim>();
  const vidx_t n = g.num_vertices();

  ctx.check_alloc();  // fault-injection hook at the sizing prologue
  res.levels.assign(static_cast<std::size_t>(n), kUnreached);
  res.levels[static_cast<std::size_t>(source)] = 0;
  res.iterations = 0;

  auto& frontier = ws.slot<PackedVecT<Dim>>("bfs.frontier");
  auto& visited = ws.slot<PackedVecT<Dim>>("bfs.visited");
  auto& next = ws.slot<PackedVecT<Dim>>("bfs.next");
  frontier.resize(n);
  visited.resize(n);
  next.resize(n);
  frontier.set(source);
  visited.set(source);
  eidx_t frontier_count = 1;
  // Word indices where the frontier is non-zero: keeps a sparse level's
  // cost proportional to the frontier, not the matrix.
  auto& active = ws.slot<std::vector<vidx_t>>("bfs.active");
  auto& touched = ws.slot<std::vector<vidx_t>>("bfs.touched");
  active.assign(1, source / Dim);
  touched.clear();

  std::int32_t level = 0;
  while (frontier_count > 0) {
    // Level boundary: the fault hook may throw, the cancellation poll
    // returns early with the levels scattered so far (a valid prefix —
    // res.iterations reflects completed levels only).
    ctx.check_kernel();
    if (ctx.cancelled()) return;
    ++level;
    // Direction optimization, as in GraphBLAST: push (frontier-
    // proportional, active-list) while the frontier is sparse, pull
    // (masked mxv over A^T, skipping the tile-rows visited has closed)
    // once it densifies.  Both apply the visited mask at the output
    // store (§V).
    // `next` is all-zero here: the scatter loop below clears every word
    // it reads, and the pull kernel rewrites the whole vector.
    const bool push = frontier_count < n / gb::kPushPullDenominator;
    touched.clear();
    if (push) {
      KernelTimerScope timer(ctx.timer);
      bmv_bin_bin_bin_push_masked(a, frontier, active, visited,
                                  /*complement=*/true, next, touched);
    } else {
      gb::bit_vxm_bool_masked<Dim>(ctx, at, frontier, visited, next);
      for (std::size_t w = 0; w < next.words.size(); ++w) {
        if (next.words[w] != 0) touched.push_back(static_cast<vidx_t>(w));
      }
    }
    // Scatter levels, fold the new frontier into visited, and reset the
    // old frontier's words (only its active words are dirty).
    for (const vidx_t w : active) {
      frontier.words[static_cast<std::size_t>(w)] = 0;
    }
    frontier_count = 0;
    for (const vidx_t wi : touched) {
      const auto w = static_cast<std::size_t>(wi);
      const auto word = next.words[w];
      next.words[w] = 0;
      frontier.words[w] = word;
      frontier_count += popcount(word);
      visited.words[w] = static_cast<typename TileTraits<Dim>::word_t>(
          visited.words[w] | word);
      for_each_set_bit(word, [&](int j) {
        const auto v = w * Dim + static_cast<std::size_t>(j);
        res.levels[v] = level;
      });
    }
    std::swap(active, touched);
    if (frontier_count > 0) res.iterations = level;
  }
}

void bfs_ref(const Context& ctx, const gb::Graph& g, vidx_t source,
             Workspace& ws, BfsResult& res) {
  const Csr& a = g.adjacency();
  const Csr& at = g.adjacency_t();
  const vidx_t n = g.num_vertices();

  ctx.check_alloc();  // fault-injection hook at the sizing prologue
  res.levels.assign(static_cast<std::size_t>(n), kUnreached);
  res.levels[static_cast<std::size_t>(source)] = 0;
  res.iterations = 0;

  auto& visited = ws.slot<std::vector<std::uint8_t>>("bfs.ref.visited");
  visited.assign(static_cast<std::size_t>(n), 0);
  visited[static_cast<std::size_t>(source)] = 1;
  auto& frontier = ws.slot<std::vector<vidx_t>>("bfs.ref.frontier");
  frontier.assign(1, source);

  std::int32_t level = 0;
  auto& frontier_dense =
      ws.slot<std::vector<std::uint8_t>>("bfs.ref.frontier_dense");
  auto& next_dense = ws.slot<std::vector<std::uint8_t>>("bfs.ref.next_dense");
  auto& next = ws.slot<std::vector<vidx_t>>("bfs.ref.next");
  while (!frontier.empty()) {
    ctx.check_kernel();
    if (ctx.cancelled()) return;
    ++level;
    next.clear();
    if (static_cast<vidx_t>(frontier.size()) <
        n / gb::kPushPullDenominator) {
      // Push: sparse frontier through A's rows (out-param: the slot's
      // capacity survives the query loop).
      gb::ref_vxm_bool_push(ctx, a, frontier, visited, next);
    } else {
      // Pull: dense scan of A^T rows with early exit.
      frontier_dense.assign(static_cast<std::size_t>(n), 0);
      for (const vidx_t u : frontier) {
        frontier_dense[static_cast<std::size_t>(u)] = 1;
      }
      gb::ref_vxm_bool_pull(ctx, at, frontier_dense, visited, next_dense);
      for (vidx_t v = 0; v < n; ++v) {
        if (next_dense[static_cast<std::size_t>(v)]) next.push_back(v);
      }
    }
    if (next.empty()) break;
    for (const vidx_t v : next) {
      visited[static_cast<std::size_t>(v)] = 1;
      res.levels[static_cast<std::size_t>(v)] = level;
    }
    std::swap(frontier, next);
    res.iterations = level;
  }
}

}  // namespace

void bfs(const Context& ctx, const gb::Graph& g, const BfsParams& params,
         Workspace& ws, BfsResult& out) {
  if (ctx.backend == Backend::kReference) {
    bfs_ref(ctx, g, params.source, ws, out);
    return;
  }
  dispatch_tile_dim(g.tile_dim(), [&]<int Dim>() {
    bfs_bit<Dim>(ctx, g, params.source, ws, out);
    return 0;
  });
}

BfsResult bfs(const Context& ctx, const gb::Graph& g,
              const BfsParams& params) {
  Workspace ws;
  BfsResult out;
  bfs(ctx, g, params, ws, out);
  return out;
}

std::vector<std::int32_t> bfs_gold(const Csr& a, vidx_t source) {
  std::vector<std::int32_t> levels(static_cast<std::size_t>(a.nrows),
                                   kUnreached);
  levels[static_cast<std::size_t>(source)] = 0;
  std::deque<vidx_t> q = {source};
  while (!q.empty()) {
    const vidx_t u = q.front();
    q.pop_front();
    for (const vidx_t v : a.row_cols(u)) {
      if (levels[static_cast<std::size_t>(v)] == kUnreached) {
        levels[static_cast<std::size_t>(v)] =
            levels[static_cast<std::size_t>(u)] + 1;
        q.push_back(v);
      }
    }
  }
  return levels;
}

}  // namespace bitgb::algo
