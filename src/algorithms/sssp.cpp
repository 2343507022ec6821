#include "algorithms/sssp.hpp"

#include "graphblas/ops.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace bitgb::algo {

namespace {

constexpr value_t kInf = std::numeric_limits<value_t>::infinity();

/// The round loop both backends share.  `round(push)` relaxes from the
/// vertices whose distance changed in the previous round (the source
/// before the first) and returns how many changed in this one; `push`
/// is BFS's direction rule applied to the previous count.
template <typename RoundFn>
void sssp_rounds(vidx_t n, vidx_t source, SsspResult& res, RoundFn&& round) {
  res.dist.assign(static_cast<std::size_t>(n), kInf);
  res.dist[static_cast<std::size_t>(source)] = 0.0f;
  res.iterations = 0;
  eidx_t changed = 1;
  for (vidx_t iter = 1; iter < n && changed > 0; ++iter) {
    changed = round(changed < n / gb::kPushPullDenominator);
    res.iterations = static_cast<int>(iter);
  }
}

template <int Dim>
void sssp_bit(const Context& ctx, const gb::Graph& g, vidx_t source,
              Workspace& ws, SsspResult& res) {
  using word_t = typename TileTraits<Dim>::word_t;
  const auto& a = g.packed().as<Dim>();
  const auto& at = g.packed_t().as<Dim>();
  const vidx_t n = g.num_vertices();

  // The changed set as packed bits plus its non-zero word indices, as
  // bfs_bit keeps its frontier.  `candidates` arrives all-zero at every
  // push (the update below clears each word it reads).
  auto& changed = ws.slot<PackedVecT<Dim>>("sssp.changed");
  auto& candidates = ws.slot<PackedVecT<Dim>>("sssp.candidates");
  auto& none = ws.slot<PackedVecT<Dim>>("sssp.none");
  auto& active = ws.slot<std::vector<vidx_t>>("sssp.active");
  auto& touched = ws.slot<std::vector<vidx_t>>("sssp.touched");
  auto& relaxed = ws.slot<std::vector<value_t>>("sssp.relaxed");
  changed.resize(n);
  candidates.resize(n);
  none.resize(n);
  relaxed.resize(static_cast<std::size_t>(n));
  changed.set(source);
  active.assign(1, source / Dim);

  sssp_rounds(n, source, res, [&](bool push) {
    if (push) {
      // Candidates: the out-neighbours of the changed set (push over A,
      // nothing masked).  Only their rows of A^T are relaxed, and only
      // the tile-rows the push listed are visited.
      touched.clear();
      {
        KernelTimerScope timer(ctx.timer);
        bmv_bin_bin_bin_push_masked(a, changed, active, none, candidates,
                                    touched);
      }
      gb::bit_mxv_masked<Dim, MinPlusOp>(ctx, at, res.dist, candidates,
                                         /*complement=*/false, touched,
                                         relaxed);
    } else {
      gb::bit_mxv<Dim, MinPlusOp>(ctx, at, res.dist, relaxed);
    }
    for (const vidx_t w : active) {
      changed.words[static_cast<std::size_t>(w)] = 0;
    }
    active.clear();
    eidx_t count = 0;
    const auto update = [&](vidx_t w, word_t rows) {
      word_t next = 0;
      for_each_set_bit(rows, [&](int j) {
        const auto v = static_cast<std::size_t>(w) * Dim +
                       static_cast<std::size_t>(j);
        if (relaxed[v] < res.dist[v]) {
          res.dist[v] = relaxed[v];
          next = set_bit(next, j);
          ++count;
        }
      });
      if (next == 0) return;
      changed.words[static_cast<std::size_t>(w)] = next;
      active.push_back(w);
    };
    if (push) {
      for (const vidx_t w : touched) {
        auto& word = candidates.words[static_cast<std::size_t>(w)];
        update(w, word);
        word = 0;
      }
    } else {
      for (vidx_t w = 0; w * Dim < n; ++w) {
        update(w, low_mask<word_t>(std::min(Dim, n - w * Dim)));
      }
    }
    return count;
  });
}

void sssp_ref(const Context& ctx, const gb::Graph& g, vidx_t source,
              Workspace& ws, SsspResult& res) {
  // GraphBLAST's min-plus semiring loads the stored edge weight per
  // nonzero; the faithful baseline does too (unit weights here).  The
  // candidate push is Boolean and reads the binary adjacency.
  const Csr& a = g.adjacency();
  const Csr& at = g.unit_adjacency_t();
  const vidx_t n = g.num_vertices();

  auto& changed = ws.slot<std::vector<vidx_t>>("sssp.ref.changed");
  auto& candidates = ws.slot<std::vector<vidx_t>>("sssp.ref.candidates");
  auto& none = ws.slot<std::vector<std::uint8_t>>("sssp.ref.none");
  auto& relaxed = ws.slot<std::vector<value_t>>("sssp.relaxed");
  changed.assign(1, source);
  none.assign(static_cast<std::size_t>(n), 0);
  relaxed.resize(static_cast<std::size_t>(n));

  sssp_rounds(n, source, res, [&](bool push) {
    if (push) {
      gb::ref_vxm_bool_push(ctx, a, changed, none, candidates);
      gb::ref_mxv_weighted_rows<MinPlusOp>(ctx, at, candidates, res.dist,
                                           relaxed);
    } else {
      gb::ref_mxv_weighted<MinPlusOp>(ctx, at, res.dist, relaxed);
    }
    changed.clear();
    const auto update = [&](vidx_t v) {
      const auto i = static_cast<std::size_t>(v);
      if (relaxed[i] < res.dist[i]) {
        res.dist[i] = relaxed[i];
        changed.push_back(v);
      }
    };
    if (push) {
      for (const vidx_t v : candidates) update(v);
    } else {
      for (vidx_t v = 0; v < n; ++v) update(v);
    }
    return static_cast<eidx_t>(changed.size());
  });
}

}  // namespace

void sssp(const Context& ctx, const gb::Graph& g, const SsspParams& params,
          Workspace& ws, SsspResult& out) {
  if (params.source < 0 || params.source >= g.num_vertices()) {
    throw std::invalid_argument("sssp: source " +
                                std::to_string(params.source) +
                                " outside [0, " +
                                std::to_string(g.num_vertices()) + ")");
  }
  if (ctx.backend == Backend::kReference) {
    sssp_ref(ctx, g, params.source, ws, out);
    return;
  }
  dispatch_tile_dim(g.tile_dim(), [&]<int Dim>() {
    sssp_bit<Dim>(ctx, g, params.source, ws, out);
    return 0;
  });
}

SsspResult sssp(const Context& ctx, const gb::Graph& g,
                const SsspParams& params) {
  Workspace ws;
  SsspResult out;
  sssp(ctx, g, params, ws, out);
  return out;
}

std::vector<value_t> sssp_gold(const Csr& a, vidx_t source) {
  std::vector<value_t> dist(static_cast<std::size_t>(a.nrows), kInf);
  dist[static_cast<std::size_t>(source)] = 0.0f;
  bool changed = true;
  while (changed) {
    changed = false;
    for (vidx_t u = 0; u < a.nrows; ++u) {
      const value_t du = dist[static_cast<std::size_t>(u)];
      if (du == kInf) continue;
      for (const vidx_t v : a.row_cols(u)) {
        if (du + 1.0f < dist[static_cast<std::size_t>(v)]) {
          dist[static_cast<std::size_t>(v)] = du + 1.0f;
          changed = true;
        }
      }
    }
  }
  return dist;
}

}  // namespace bitgb::algo
