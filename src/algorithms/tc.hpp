// Triangle Counting — arithmetic semiring, masked SpGEMM (paper §V,
// following Azad–Buluc and Wolf: count = sum((L * L^T) .* L) with L the
// strict lower triangle of the adjacency matrix).
//
// The bit backend fuses the reduction into the masked BMM
// (bmm_bin_bin_sum_masked — "we fuse the reduction sum kernel with
// mxm() and directly perform atomicAdd to [the] global sum", §V); the
// reference backend is the GraphBLAST-style masked dot-product SpGEMM
// over float CSR.
#pragma once

#include "algorithms/workspace.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"

#include <cstdint>

namespace bitgb::algo {

struct TcParams {};

struct TcResult {
  std::int64_t triangles = 0;
};

/// Workspace form for API uniformity (TC's reduction is a scalar, and
/// the masked BMM owns its dense A rows, so `ws` is accepted and
/// unused).
void triangle_count(const Context& ctx, const gb::Graph& g,
                    const TcParams& params, Workspace& ws, TcResult& out);

/// Convenience form.
[[nodiscard]] std::int64_t triangle_count(const Context& ctx,
                                          const gb::Graph& g,
                                          const TcParams& params = {});

/// Sorted-adjacency-intersection gold reference.
[[nodiscard]] std::int64_t tc_gold(const Csr& a);

}  // namespace bitgb::algo
