#include "algorithms/coloring.hpp"

#include "graphblas/ops.hpp"
#include "platform/intrinsics.hpp"

#include <algorithm>

namespace bitgb::algo {

namespace {

// Smallest color not used by v's already-colored neighbours — the
// greedy rule that keeps the palette within max-degree + 1.
std::int32_t smallest_free_color(const Csr& a,
                                 const std::vector<std::int32_t>& color,
                                 vidx_t v, std::vector<std::uint8_t>& used) {
  const auto cols = a.row_cols(v);
  if (used.size() < cols.size() + 1) used.resize(cols.size() + 1);
  std::fill(used.begin(),
            used.begin() + static_cast<std::ptrdiff_t>(cols.size() + 1), 0);
  for (const vidx_t u : cols) {
    const auto cu = color[static_cast<std::size_t>(u)];
    if (cu >= 0 && cu <= static_cast<std::int32_t>(cols.size())) {
      used[static_cast<std::size_t>(cu)] = 1;
    }
  }
  std::int32_t c = 0;
  while (used[static_cast<std::size_t>(c)]) ++c;
  return c;
}

template <typename MaxMxvFn>
void jp_loop(const gb::Graph& g, std::uint64_t seed, Workspace& ws,
             ColoringResult& res, MaxMxvFn&& max_mxv) {
  const vidx_t n = g.num_vertices();
  res.color.assign(static_cast<std::size_t>(n), -1);
  res.num_colors = 0;

  auto& prio = ws.slot<std::vector<value_t>>("gc.prio");
  auto& nbr_max = ws.slot<std::vector<value_t>>("gc.nbr_max");
  auto& used = ws.slot<std::vector<std::uint8_t>>("gc.used");
  prio.resize(static_cast<std::size_t>(n));
  vidx_t uncolored = n;
  int round = 0;

  while (uncolored > 0) {
    ++round;
    // Uncolored vertices draw fresh priorities; colored ones are -inf.
    for (vidx_t v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      prio[vi] =
          res.color[vi] < 0
              ? static_cast<value_t>(
                    (splitmix64(seed ^ (static_cast<std::uint64_t>(v) +
                                        static_cast<std::uint64_t>(round) *
                                            0x10001ull)) >>
                     40) +
                    1)
              : MaxTimesOp::identity;
    }
    max_mxv(prio, nbr_max);
    // Local maxima of the uncolored subgraph win this round.  A vertex
    // compares only against *uncolored* neighbours, which is exactly
    // what the -inf priorities of colored vertices arrange.  Winners of
    // one round form an independent set (strict comparison; hash ties
    // resolved by the ascending id order of the assignment loop below,
    // since an already-assigned smaller neighbour's color is visible to
    // the larger one), so the greedy rule keeps colors <= maxdeg + 1.
    for (vidx_t v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (res.color[vi] >= 0) continue;
      if (prio[vi] > nbr_max[vi] || nbr_max[vi] == MaxTimesOp::identity) {
        const std::int32_t c =
            smallest_free_color(g.adjacency(), res.color, v, used);
        res.color[vi] = c;
        res.num_colors = std::max(res.num_colors, c + 1);
        --uncolored;
      }
    }
  }
}

}  // namespace

void greedy_coloring(const Context& ctx, const gb::Graph& g,
                     const ColoringParams& /*params*/, Workspace& ws,
                     ColoringResult& out) {
  if (ctx.backend == Backend::kReference) {
    const Csr& a = g.adjacency();
    jp_loop(g, ctx.seed, ws, out,
            [&](const std::vector<value_t>& x, std::vector<value_t>& y) {
              gb::ref_mxv<MaxTimesOp>(ctx, a, x, y);
            });
    return;
  }
  dispatch_tile_dim(g.tile_dim(), [&]<int Dim>() {
    const auto& a = g.packed().as<Dim>();
    jp_loop(g, ctx.seed, ws, out,
            [&](const std::vector<value_t>& x, std::vector<value_t>& y) {
              gb::bit_mxv<Dim, MaxTimesOp>(ctx, a, x, y);
            });
    return 0;
  });
}

ColoringResult greedy_coloring(const Context& ctx, const gb::Graph& g,
                               const ColoringParams& params) {
  Workspace ws;
  ColoringResult out;
  greedy_coloring(ctx, g, params, ws, out);
  return out;
}

bool is_valid_coloring(const Csr& a, const std::vector<std::int32_t>& color) {
  for (vidx_t v = 0; v < a.nrows; ++v) {
    if (color[static_cast<std::size_t>(v)] < 0) return false;
    for (const vidx_t u : a.row_cols(v)) {
      if (color[static_cast<std::size_t>(u)] ==
          color[static_cast<std::size_t>(v)]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace bitgb::algo
