// Binarized sparse Matrix-Matrix kernels (BMM) — paper Table III.
//
// The paper's BMM reduces the whole product to one full-precision scalar
// ("The output C is a single variable in full precision, summing up the
// nonzeros of the resulting bit matrix", §IV Listing 2):
//
//   bmm_bin_bin_sum(A, B)          = sum over all entries of the
//                                    counting product A * B
//   bmm_bin_bin_sum_masked(A,B,M)  = sum over entries (i,j) with
//                                    M(i,j)=1 of (A * B^T)(i,j)
//
// The masked scheme is stated in A*B^T (dot) form because that is both
// what Listing 2 computes at the bit level — popc(r0 & shfl(r1,k)) dots
// a bit-row of A against a bit-row of B — and what triangle counting
// needs: with A = B = M = L (strict lower triangle), the result is
// sum((L*L^T) .* L) = the triangle count (paper §V, TC).  No
// transposition is materialized: A's tile-row tr is scattered once into
// a zeroed dense row of a.n_tile_cols() tiles, each mask tile (tr, j)
// makes one engine call (simd::masked_row_dot) over B's whole tile-row
// j, reading A's tile for each B tile column straight from the dense
// row (a missing one is all-zero), and the same tiles are cleared
// before the next tile-row.  The tile-rows split into one contiguous
// range per worker, balanced by the B tiles their mask tiles visit
// (one pre-pass over the mask; none at 1 thread); each range owns one
// dense row of about ncols * sizeof(word_t) bytes (64 KiB for a
// 65536-column B2SR-4 matrix).
//
// The unmasked scheme computes the conventional A*B (Gustavson over
// tiles).  Its inner loop uses the identity
//   sum_c (A*B)(block)(r,c) = sum_{t in Arow_r} popc(Brow_t),
// i.e. one popcount per set bit of A — the same word-level work as the
// paper's kernel after the register reduction is folded in.
//
// bit_spgemm (bit_spgemm.hpp) additionally produces a *matrix* result in
// B2SR for the Boolean product — an extension beyond the paper's
// sum-only kernel, needed by multi-hop reachability style uses.
#pragma once

#include "core/b2sr.hpp"
#include "platform/exec.hpp"

#include <cstdint>

namespace bitgb {

// Both kernels take a trailing Exec (platform/exec.hpp) carrying the
// thread budget; their inner loops run through the SIMD engine
// (platform/simd.hpp), whose CPUID-picked bodies agree exactly (the
// reductions are integer sums).

/// Sum over the counting product A*B (requires a.ncols == b.nrows).
template <int Dim>
[[nodiscard]] std::int64_t bmm_bin_bin_sum(const B2srT<Dim>& a,
                                           const B2srT<Dim>& b,
                                           Exec exec = {});

/// Masked dot-product sum: sum_{(i,j): M(i,j)=1} (A * B^T)(i,j).
/// Requires a.ncols == b.ncols (shared inner dimension) and
/// mask.nrows == a.nrows, mask.ncols == b.nrows.
template <int Dim>
[[nodiscard]] std::int64_t bmm_bin_bin_sum_masked(const B2srT<Dim>& a,
                                                  const B2srT<Dim>& b,
                                                  const B2srT<Dim>& mask,
                                                  Exec exec = {});

}  // namespace bitgb
