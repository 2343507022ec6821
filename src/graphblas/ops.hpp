// GraphBLAS operations for both backends.
//
// Every operation takes the caller's Context first — the execution
// descriptor (platform/context.hpp) carrying the backend, the thread
// budget and the optional kernel-time sink.  Nothing here reads
// process-global state, so operations issued from different threads
// with different Contexts never interfere.
//
// The reference backend is the GraphBLAST substitute: float-CSR
// semiring mxv/vxm with masks, a sparse (push) and dense (pull) boolean
// frontier pair with direction optimization, and early exit inside the
// masked pull — the optimizations §II credits GraphBLAST with
// ("exploiting input and output sparsity" / push-pull).
//
// The bit backend routes to the B2SR kernels of src/core.  Its Boolean
// pull reads the mask per tile-row: a closed tile-row is skipped whole,
// and inside an open row the mask is AND-ed at the output store (no
// per-row early exit — the paper's §V design choice, because the rows
// of a tile-row share a warp).
//
// Every operation contributes to the Context's kernel-time sink (when
// set), which is how the bench harness splits "algorithm" from
// "kernel" time in Tables VII/VIII.
#pragma once

#include "core/bmv.hpp"
#include "core/bmm.hpp"
#include "core/frontier_batch.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"
#include "platform/timer.hpp"

#include <cstdint>
#include <vector>

namespace bitgb::gb {

// ---------------------------------------------------------------------
// Reference (GraphBLAST-substitute) backend
// ---------------------------------------------------------------------

/// Dense semiring mxv over binary CSR: y[i] = reduce_{j in adj(i)}
/// map(x[j]); rows with no neighbours get Op::identity.
template <typename Op>
void ref_mxv(const Context& ctx, const Csr& a, const std::vector<value_t>& x,
             std::vector<value_t>& y) {
  KernelTimerScope timer(ctx.timer);
  y.assign(static_cast<std::size_t>(a.nrows), Op::identity);
  parallel_for(ctx.threads, vidx_t{0}, a.nrows, [&](vidx_t r) {
    value_t acc = Op::identity;
    for (const vidx_t c : a.row_cols(r)) {
      acc = Op::reduce(acc, Op::map(x[static_cast<std::size_t>(c)]));
    }
    y[static_cast<std::size_t>(r)] = acc;
  });
}

/// Dense semiring mxv over *weighted* CSR: the faithful GraphBLAST
/// behaviour for arithmetic/min-plus semirings, which load one stored
/// float per nonzero (`a` must carry values; a unit-valued copy of a
/// binary adjacency gives identical results with the baseline's real
/// memory traffic).
template <typename Op>
void ref_mxv_weighted(const Context& ctx, const Csr& a,
                      const std::vector<value_t>& x,
                      std::vector<value_t>& y) {
  KernelTimerScope timer(ctx.timer);
  y.assign(static_cast<std::size_t>(a.nrows), Op::identity);
  parallel_for(ctx.threads, vidx_t{0}, a.nrows, [&](vidx_t r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    value_t acc = Op::identity;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      acc = Op::reduce(
          acc, Op::combine(vals[i], x[static_cast<std::size_t>(cols[i])]));
    }
    y[static_cast<std::size_t>(r)] = acc;
  });
}

/// Masked dense semiring mxv; positions failing the mask keep their
/// previous y (y pre-sized by caller).  mask is a dense 0/1 byte vector.
template <typename Op>
void ref_mxv_masked(const Context& ctx, const Csr& a,
                    const std::vector<value_t>& x,
                    const std::vector<std::uint8_t>& mask, bool complement,
                    std::vector<value_t>& y) {
  KernelTimerScope timer(ctx.timer);
  parallel_for(ctx.threads, vidx_t{0}, a.nrows, [&](vidx_t r) {
    const bool pass =
        (mask[static_cast<std::size_t>(r)] != 0) != complement;
    if (!pass) return;  // GraphBLAST-style early exit on the mask
    value_t acc = Op::identity;
    for (const vidx_t c : a.row_cols(r)) {
      acc = Op::reduce(acc, Op::map(x[static_cast<std::size_t>(c)]));
    }
    y[static_cast<std::size_t>(r)] = acc;
  });
}

/// Boolean vxm, push direction: expand a sparse frontier through A's
/// rows, drop visited vertices, produce the new frontier (sorted,
/// deduplicated) into `next` — an out-parameter so steady-state BFS
/// loops reuse its capacity.  visited is a dense 0/1 byte vector.
void ref_vxm_bool_push(const Context& ctx, const Csr& a,
                       const std::vector<vidx_t>& frontier,
                       const std::vector<std::uint8_t>& visited,
                       std::vector<vidx_t>& next);

/// Convenience returning form.
[[nodiscard]] std::vector<vidx_t> ref_vxm_bool_push(
    const Context& ctx, const Csr& a, const std::vector<vidx_t>& frontier,
    const std::vector<std::uint8_t>& visited);

/// Boolean vxm, pull direction: for every unvisited vertex, scan its
/// in-neighbours (rows of A^T) and stop at the first frontier member
/// (early exit).  frontier_dense is 0/1 per vertex; out likewise.
void ref_vxm_bool_pull(const Context& ctx, const Csr& at,
                       const std::vector<std::uint8_t>& frontier_dense,
                       const std::vector<std::uint8_t>& visited,
                       std::vector<std::uint8_t>& out);

/// Direction-optimization threshold: push while |frontier| < n / this.
inline constexpr vidx_t kPushPullDenominator = 32;

/// Batched Boolean frontier expansion, reference backend: one masked
/// dense pull per bit-column of the batch (the GraphBLAST-substitute
/// serves concurrent traversals as independent mxv sweeps — the very
/// N-sweeps cost the bit backend's single BMM sweep amortizes away).
/// `at` is the matrix whose rows are scanned: pass A^T for the vxm-style
/// frontier expansion, exactly as ref_vxm_bool_pull does.  Per column b:
/// next(r, b) = 1 iff visited(r, b) == 0 and some in-neighbour of r is
/// in frontier b (early exit on the first hit, GraphBLAST pull style).
void ref_mxm_frontier_masked(const Context& ctx, const Csr& at,
                             const FrontierBatch& f,
                             const FrontierBatch& visited,
                             FrontierBatch& next);

// ---------------------------------------------------------------------
// Bit (B2SR) backend — thin instrumented wrappers over src/core
// ---------------------------------------------------------------------

template <int Dim>
void bit_vxm_bool_masked(const Context& ctx, const B2srT<Dim>& at,
                         const PackedVecT<Dim>& frontier,
                         const PackedVecT<Dim>& visited,
                         PackedVecT<Dim>& next) {
  KernelTimerScope timer(ctx.timer);
  // vxm(f, A) == mxv(A^T, f); mask = complement(visited).
  bmv_bin_bin_bin_masked(at, frontier, visited, /*complement=*/true, next,
                         ctx.exec());
}

template <int Dim, typename Op>
void bit_mxv(const Context& ctx, const B2srT<Dim>& a,
             const std::vector<value_t>& x, std::vector<value_t>& y) {
  KernelTimerScope timer(ctx.timer);
  bmv_bin_full_full<Dim, Op>(a, x, y, ctx.exec());
}

template <int Dim, typename Op>
void bit_mxv_masked(const Context& ctx, const B2srT<Dim>& a,
                    const std::vector<value_t>& x,
                    const PackedVecT<Dim>& mask, bool complement,
                    std::vector<value_t>& y) {
  KernelTimerScope timer(ctx.timer);
  bmv_bin_full_full_masked<Dim, Op>(a, x, mask, complement, y, ctx.exec());
}

template <int Dim>
[[nodiscard]] std::int64_t bit_mxm_masked_sum(const Context& ctx,
                                              const B2srT<Dim>& a,
                                              const B2srT<Dim>& b,
                                              const B2srT<Dim>& mask) {
  KernelTimerScope timer(ctx.timer);
  return bmm_bin_bin_sum_masked(a, b, mask, ctx.exec());
}

/// Batched Boolean frontier expansion, bit backend: ONE BMM sweep over
/// the B2SR tiles of A^T expands all <= 64 frontiers of the batch at
/// once — next = (A^T (.) F) & ~visited, the visited complement AND-ed
/// at the output store (§V masking, lifted to the batch).
template <int Dim>
void bit_mxm_frontier_masked(const Context& ctx, const B2srT<Dim>& at,
                             const FrontierBatch& f,
                             const FrontierBatch& visited,
                             FrontierBatch& next) {
  KernelTimerScope timer(ctx.timer);
  bmm_frontier_masked(at, f, visited, /*complement=*/true, next, ctx.exec());
}

}  // namespace bitgb::gb
