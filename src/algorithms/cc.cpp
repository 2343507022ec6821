#include "algorithms/cc.hpp"

#include "graphblas/ops.hpp"

#include <numeric>
#include <stdexcept>

namespace bitgb::algo {

namespace {

template <typename MxvFn>
void fastsv_loop(const Context& ctx, vidx_t n, Workspace& ws, CcResult& res,
                 MxvFn&& min_mxv) {
  ctx.check_alloc();  // fault-injection hook at the sizing prologue
  res.iterations = 0;

  auto& f = ws.slot<std::vector<value_t>>("cc.f");
  auto& gf = ws.slot<std::vector<value_t>>("cc.gf");
  auto& mngf = ws.slot<std::vector<value_t>>("cc.mngf");
  f.resize(static_cast<std::size_t>(n));
  std::iota(f.begin(), f.end(), 0.0f);
  gf = f;  // grandparents (f[f] with f = identity)

  bool changed = true;
  while (changed) {
    ctx.check_kernel();  // round boundary
    changed = false;
    ++res.iterations;

    // 1. minimum neighbour grandparent.
    min_mxv(gf, mngf);

    // 2&3. hooking.  mngf[u] == identity(+inf) for isolated vertices.
    for (vidx_t u = 0; u < n; ++u) {
      const value_t m = mngf[static_cast<std::size_t>(u)];
      if (!(m < static_cast<value_t>(n))) continue;  // +inf: no neighbour
      // stochastic hooking: hook u's parent to m.
      const auto fu = static_cast<std::size_t>(f[static_cast<std::size_t>(u)]);
      if (m < f[fu]) {
        f[fu] = m;
        changed = true;
      }
      // aggressive hooking: hook u itself.
      if (m < f[static_cast<std::size_t>(u)]) {
        f[static_cast<std::size_t>(u)] = m;
        changed = true;
      }
    }

    // 4. shortcutting.
    for (vidx_t u = 0; u < n; ++u) {
      const auto fu = static_cast<std::size_t>(f[static_cast<std::size_t>(u)]);
      if (f[fu] < f[static_cast<std::size_t>(u)]) {
        f[static_cast<std::size_t>(u)] = f[fu];
        changed = true;
      }
    }

    // 5. recompute grandparents.
    for (vidx_t u = 0; u < n; ++u) {
      const auto fu = static_cast<std::size_t>(f[static_cast<std::size_t>(u)]);
      gf[static_cast<std::size_t>(u)] = f[fu];
    }
  }

  res.component.resize(static_cast<std::size_t>(n));
  for (vidx_t u = 0; u < n; ++u) {
    res.component[static_cast<std::size_t>(u)] =
        static_cast<vidx_t>(f[static_cast<std::size_t>(u)]);
  }
}

}  // namespace

void connected_components(const Context& ctx, const gb::Graph& g,
                          const CcParams& /*params*/, Workspace& ws,
                          CcResult& out) {
  const vidx_t n = g.num_vertices();
  // Checked before any format or buffer is built: past the limit a
  // label rounds up to n and the first hooking pass indexes f[n].
  if (n >= kCcVertexLimit) {
    throw std::length_error(
        "connected_components: FastSV labels are float, so the graph "
        "must have fewer than 2^24 vertices");
  }
  if (ctx.backend == Backend::kReference) {
    const Csr& a = g.adjacency();
    fastsv_loop(ctx, n, ws, out,
                [&](const std::vector<value_t>& x, std::vector<value_t>& y) {
                  gb::ref_mxv<MinIdentityOp>(ctx, a, x, y);
                });
    return;
  }
  dispatch_tile_dim(g.tile_dim(), [&]<int Dim>() {
    const auto& a = g.packed().as<Dim>();
    fastsv_loop(ctx, n, ws, out,
                [&](const std::vector<value_t>& x, std::vector<value_t>& y) {
                  gb::bit_mxv<Dim, MinIdentityOp>(ctx, a, x, y);
                });
    return 0;
  });
}

CcResult connected_components(const Context& ctx, const gb::Graph& g,
                              const CcParams& params) {
  Workspace ws;
  CcResult out;
  connected_components(ctx, g, params, ws, out);
  return out;
}

std::vector<vidx_t> cc_gold(const Csr& a) {
  std::vector<vidx_t> parent(static_cast<std::size_t>(a.nrows));
  std::iota(parent.begin(), parent.end(), vidx_t{0});

  const auto find = [&](vidx_t x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };

  for (vidx_t u = 0; u < a.nrows; ++u) {
    for (const vidx_t v : a.row_cols(u)) {
      const vidx_t ru = find(u);
      const vidx_t rv = find(v);
      if (ru != rv) parent[static_cast<std::size_t>(std::max(ru, rv))] =
          std::min(ru, rv);
    }
  }
  // Normalize to the minimum vertex id of each component.
  std::vector<vidx_t> comp(static_cast<std::size_t>(a.nrows));
  for (vidx_t u = 0; u < a.nrows; ++u) {
    comp[static_cast<std::size_t>(u)] = find(u);
  }
  return comp;
}

}  // namespace bitgb::algo
