#include "graphblas/ops.hpp"

#include <algorithm>

namespace bitgb::gb {

void ref_vxm_bool_push(const Context& ctx, const Csr& a,
                       const std::vector<vidx_t>& frontier,
                       const std::vector<std::uint8_t>& visited,
                       std::vector<vidx_t>& next) {
  KernelTimerScope timer(ctx.timer);
  next.clear();
  for (const vidx_t u : frontier) {
    for (const vidx_t v : a.row_cols(u)) {
      if (!visited[static_cast<std::size_t>(v)]) next.push_back(v);
    }
  }
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());
}

void ref_vxm_bool_pull(const Context& ctx, const Csr& at,
                       const std::vector<std::uint8_t>& frontier_dense,
                       const std::vector<std::uint8_t>& visited,
                       std::vector<std::uint8_t>& out) {
  KernelTimerScope timer(ctx.timer);
  out.assign(static_cast<std::size_t>(at.nrows), 0);
  parallel_for(ctx.threads, vidx_t{0}, at.nrows, [&](vidx_t v) {
    if (visited[static_cast<std::size_t>(v)]) return;  // early exit on mask
    for (const vidx_t u : at.row_cols(v)) {
      if (frontier_dense[static_cast<std::size_t>(u)]) {
        out[static_cast<std::size_t>(v)] = 1;
        break;  // early exit on first reaching in-neighbour
      }
    }
  });
}

}  // namespace bitgb::gb
