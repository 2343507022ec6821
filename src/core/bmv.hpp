// Binarized sparse Matrix-Vector kernels (BMV) — paper Table II.
//
// Six schemes over B2SR, named as in the paper:
//
//   bmv_bin_bin_bin          1-bit A, 1-bit x, 1-bit y     (Boolean OR-AND)
//   bmv_bin_bin_full         1-bit A, 1-bit x, 32-bit y    (popcount sums)
//   bmv_bin_full_full<Op>    1-bit A, 32-bit x, 32-bit y   (semiring Op)
//   *_masked                 same, with a bit-mask applied at the output
//                            store (the paper's masking design: "the
//                            bitmask is applied right before the output
//                            store, having bit-wise AND with the negation
//                            of [the] visited vertex vector", §V) —
//                            masked-off positions keep their prior value.
//                            The Boolean pull reads the mask first and
//                            skips a tile-row it closes whole.
//
// Parallelization: one tile-row per task (the paper's one-warp-per-
// tile-row mapping, §IV "warp-consolidation model"); output rows of
// distinct tile-rows are disjoint, so no atomics are needed on y.
// Within a tile, bit-row r of word w and the packed vector chunk b give
//   y[r] (+)= popc(w & b)          — the paper's core identity
//   A_ij x b_j = c_i = __popc(A_ij & b_j).
//
// The semiring scheme maps lanes instead of popcounts (the paper's warp
// lanes each holding one x element): lane j of a tile holds
// x[tc*Dim + j], each bit-row word selects the lanes that fold into
// that row's Dim lane accumulators, and each row folds its lanes in
// ascending order once per tile-row (simd::semiring_row_fold).  That
// lane order is the kernel's contract: the AVX2 body folds every lane
// of every word at once, the portable body folds only the set bits
// (the rest would fold the identity, which is exact), and both run the
// same float operations in the same order — so portable == AVX2 bit
// for bit on every bundle and thread count, plus-times included.
//
// The masked variants take the mask as a PackedVec of the same tile dim
// plus `complement` (GraphBLAS structural complement: BFS masks with the
// *negation* of visited).
#pragma once

#include "core/b2sr.hpp"
#include "core/packed_vector.hpp"
#include "core/semiring_ops.hpp"
#include "platform/exec.hpp"
#include "platform/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace bitgb {

// Every kernel takes a trailing Exec (platform/exec.hpp) whose
// `threads` bounds the parallel region, so concurrent callers with
// different policies never touch shared state.  The pull kernels run
// their inner loop through the SIMD engine (platform/simd.hpp), which
// picks the AVX2 or portable body by CPUID; both are bit-identical
// (integer-exact reductions, and the semiring lane order above).  The
// active-list push kernel is a frontier-proportional serial scatter
// loop by design.

// --- bin x bin -> bin (Boolean semiring; BFS frontier expansion) ---

template <int Dim>
void bmv_bin_bin_bin(const B2srT<Dim>& a, const PackedVecT<Dim>& x,
                     PackedVecT<Dim>& y, Exec exec = {});

/// Masked: y_bits &= (complement ? ~mask : mask) at store time.
template <int Dim>
void bmv_bin_bin_bin_masked(const B2srT<Dim>& a, const PackedVecT<Dim>& x,
                            const PackedVecT<Dim>& mask, bool complement,
                            PackedVecT<Dim>& y, Exec exec = {});

/// Push-direction boolean vxm: y = x^T (.) A == OR of A's bit-rows
/// selected by x.  This is the sparse-frontier dual of bmv_bin_bin_bin
/// (the same vxm() traversal the paper's BFS performs, §V); the
/// direction-optimized BFS uses it while the frontier is sparse.  The
/// caller supplies the indices of x's non-zero words (`active`), and
/// the kernel appends to `touched` the indices of y's words it turned
/// non-zero — so a BFS level costs O(frontier tiles), independent of
/// the matrix size.  The mask is applied at the output store.  `y` must
/// arrive all-zero and correctly sized; duplicate-free `touched` is
/// guaranteed.
template <int Dim>
void bmv_bin_bin_bin_push_masked(const B2srT<Dim>& a,
                                 const PackedVecT<Dim>& x,
                                 const std::vector<vidx_t>& active,
                                 const PackedVecT<Dim>& mask, bool complement,
                                 PackedVecT<Dim>& y,
                                 std::vector<vidx_t>& touched);

// --- bin x bin -> full (counting; y[i] = |adj(i) ∩ x|) ---

template <int Dim>
void bmv_bin_bin_full(const B2srT<Dim>& a, const PackedVecT<Dim>& x,
                      std::vector<value_t>& y, Exec exec = {});

template <int Dim>
void bmv_bin_bin_full_masked(const B2srT<Dim>& a, const PackedVecT<Dim>& x,
                             const PackedVecT<Dim>& mask, bool complement,
                             std::vector<value_t>& y, Exec exec = {});

// --- bin x full -> full (general semiring Op; SSSP/PR/CC) ---

namespace detail {

/// The tile-row loop both semiring kernels share: fold every non-empty
/// tile-row through simd::semiring_row_fold, then store row r unless
/// `mask` (null = keep all) drops it.  Empty tile-rows are not stored.
template <int Dim>
void semiring_tile_rows(const B2srT<Dim>& a, const value_t* x,
                        LaneReduce reduce, value_t offset,
                        const PackedVecT<Dim>* mask, bool complement,
                        value_t* y, Exec exec);

}  // namespace detail

/// y[i] = reduce over i's adjacent columns j of map(x[j]); rows with no
/// neighbour get Op::identity.
template <int Dim, typename Op>
void bmv_bin_full_full(const B2srT<Dim>& a, const std::vector<value_t>& x,
                       std::vector<value_t>& y, Exec exec = {}, Op = Op{}) {
  assert(static_cast<vidx_t>(x.size()) == a.ncols);
  y.assign(static_cast<std::size_t>(a.nrows), Op::identity);
  detail::semiring_tile_rows<Dim>(a, x.data(), Op::lane_reduce,
                                  Op::map_offset, nullptr, false, y.data(),
                                  exec);
}

/// Masked semiring BMV: positions whose mask test fails keep their
/// previous y value (y must be pre-sized to nrows by the caller).
template <int Dim, typename Op>
void bmv_bin_full_full_masked(const B2srT<Dim>& a,
                              const std::vector<value_t>& x,
                              const PackedVecT<Dim>& mask, bool complement,
                              std::vector<value_t>& y, Exec exec = {},
                              Op = Op{}) {
  assert(static_cast<vidx_t>(x.size()) == a.ncols);
  assert(static_cast<vidx_t>(y.size()) == a.nrows);
  assert(mask.n == a.nrows);
  detail::semiring_tile_rows<Dim>(a, x.data(), Op::lane_reduce,
                                  Op::map_offset, &mask, complement, y.data(),
                                  exec);
}

// Declarations of the non-template-parameterized kernels are explicit
// per dim; definitions live in bmv.cpp with explicit instantiation.

}  // namespace bitgb
