#include "algorithms/mis.hpp"

#include "graphblas/ops.hpp"
#include "platform/intrinsics.hpp"

#include <limits>

namespace bitgb::algo {

namespace {

template <typename MaxMxvFn>
void luby_loop(const gb::Graph& g, std::uint64_t seed, Workspace& ws,
               MisResult& res, MaxMxvFn&& max_mxv) {
  const vidx_t n = g.num_vertices();
  res.in_set.assign(static_cast<std::size_t>(n), 0);
  res.rounds = 0;

  auto& candidate = ws.slot<std::vector<std::uint8_t>>("mis.candidate");
  auto& prio = ws.slot<std::vector<value_t>>("mis.prio");
  auto& nbr_max = ws.slot<std::vector<value_t>>("mis.nbr_max");
  candidate.assign(static_cast<std::size_t>(n), 1);
  prio.resize(static_cast<std::size_t>(n));
  vidx_t remaining = n;

  while (remaining > 0) {
    ++res.rounds;
    // Candidates draw priorities; settled vertices are -inf so they
    // cannot dominate anyone (max-times identity).
    for (vidx_t v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      prio[vi] = candidate[vi]
                     ? static_cast<value_t>(
                           (splitmix64(seed ^ (static_cast<std::uint64_t>(v) +
                                               res.rounds * 0x10001ull)) >>
                            40) +
                           1)
                     : MaxTimesOp::identity;
    }
    // nbr_max[v] = max over neighbours of prio (max-times semiring).
    max_mxv(prio, nbr_max);

    // Winners: candidates whose priority beats the whole neighbourhood.
    for (vidx_t v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (!candidate[vi]) continue;
      if (prio[vi] > nbr_max[vi] ||
          nbr_max[vi] == MaxTimesOp::identity) {
        res.in_set[vi] = 1;
      }
    }
    // Adjacent winners can only arise from a priority-hash tie (the
    // comparison above is strict); resolve deterministically by vertex
    // id — the ascending scan demotes the larger endpoint, so the kept
    // winners form an independent set and demoted vertices stay
    // candidates for later rounds.
    for (vidx_t v = 0; v < n; ++v) {
      if (!res.in_set[static_cast<std::size_t>(v)]) continue;
      for (const vidx_t u : g.adjacency().row_cols(v)) {
        if (u > v) res.in_set[static_cast<std::size_t>(u)] = 0;
      }
    }
    // Winners and their neighbourhoods leave the candidate pool.
    for (vidx_t v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (!res.in_set[vi]) continue;
      if (candidate[vi]) {
        candidate[vi] = 0;
        --remaining;
      }
      for (const vidx_t u : g.adjacency().row_cols(v)) {
        const auto ui = static_cast<std::size_t>(u);
        if (candidate[ui]) {
          candidate[ui] = 0;
          --remaining;
        }
      }
    }
  }
}

}  // namespace

void maximal_independent_set(const Context& ctx, const gb::Graph& g,
                             const MisParams& /*params*/, Workspace& ws,
                             MisResult& out) {
  if (ctx.backend == Backend::kReference) {
    const Csr& a = g.adjacency();
    luby_loop(g, ctx.seed, ws, out,
              [&](const std::vector<value_t>& x, std::vector<value_t>& y) {
                gb::ref_mxv<MaxTimesOp>(ctx, a, x, y);
              });
    return;
  }
  dispatch_tile_dim(g.tile_dim(), [&]<int Dim>() {
    const auto& a = g.packed().as<Dim>();
    luby_loop(g, ctx.seed, ws, out,
              [&](const std::vector<value_t>& x, std::vector<value_t>& y) {
                gb::bit_mxv<Dim, MaxTimesOp>(ctx, a, x, y);
              });
    return 0;
  });
}

MisResult maximal_independent_set(const Context& ctx, const gb::Graph& g,
                                  const MisParams& params) {
  Workspace ws;
  MisResult out;
  maximal_independent_set(ctx, g, params, ws, out);
  return out;
}

bool is_valid_mis(const Csr& a, const std::vector<std::uint8_t>& in_set) {
  for (vidx_t v = 0; v < a.nrows; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    bool has_set_neighbour = false;
    for (const vidx_t u : a.row_cols(v)) {
      if (in_set[static_cast<std::size_t>(u)]) {
        if (in_set[vi]) return false;  // edge inside the set
        has_set_neighbour = true;
      }
    }
    if (!in_set[vi] && !has_set_neighbour) return false;  // not maximal
  }
  return true;
}

}  // namespace bitgb::algo
