// SIMD multi-tile kernel engine — the CPU analog of the paper's
// one-warp-per-tile-row mapping (§IV, warp-consolidation model).
//
// On the GPU a warp processes a whole B2SR tile per instruction; on the
// host the same data-level parallelism comes from streaming a tile-row's
// contiguous tile words through vector registers: 8 B2SR-4 tiles or
// 4 B2SR-8 tiles per 256-bit AVX2 load, one B2SR-16 tile per load, a
// quarter B2SR-32 tile per load.  The per-row reductions map onto
//   * compare-with-zero + movemask for the Boolean OR-AND kernels
//     (the whole tile-row output word materializes as a mask register),
//   * byte-lane popcount via the Mula pshufb nibble-LUT approach with
//     per-row accumulation in integer lanes for the counting kernels,
//   * per-column lane selects + lane-wise OR for the 64-wide
//     FrontierBatch accumulation (a tile column's frontier word lands in
//     every row whose bit is set, no per-row branch),
//   * bit-row word -> lane select + lane-wise add / min / max for the
//     semiring BMV (one float lane per tile column).
//
// One choice, made by what the code observes: the first kernel call
// CPUID-probes the host (__builtin_cpu_supports) and caches the result;
// every entry below then runs its AVX2 body when the host reports AVX2
// and its portable body otherwise (non-x86 hosts, x86 hosts without
// AVX2, toolchains without gcc/clang function target attributes).  The
// AVX2 bodies are compiled behind per-function target attributes, so
// no -march flag is required.  No caller, Exec or Context can pin a
// body: the dispatchers in simd.cpp are the only code that knows which
// inner loop runs.
//
// Every integer entry is exact (OR / popcount-add are associative and
// commutative), so the two bodies are bit-for-bit identical; the float
// entry (semiring_row_fold) is bit-identical because both of its bodies
// fold the same lane values in the same order.  The portable bodies
// are exported as simd::portable::<entry>, the reference
// test_simd_parity compares the dispatched entries against.
#pragma once

#include "core/semiring_ops.hpp"
#include "core/tile_traits.hpp"
#include "sparse/types.hpp"

#include <cstdint>

namespace bitgb {

namespace simd {

/// Instruction-set backend of the engine.
enum class Backend { kAvx2, kPortable };

/// Runtime-verified backend: kAvx2 when it is compiled in and the host
/// CPU reports AVX2 (CPUID-checked once, then cached), else kPortable.
[[nodiscard]] Backend active_backend();

[[nodiscard]] const char* backend_name(Backend b);

// ---------------------------------------------------------------------
// Tile-row inner loops.  All take raw pointers into the B2SR arrays:
// `tiles` is the contiguous tile-word store (tile t occupies
// tiles[t*Dim .. t*Dim+Dim)), `colind` the tile-column index array,
// and [lo, hi) the tile range of one tile-row.  Each entry runs the
// AVX2 body on an AVX2 host and portable::<entry> elsewhere; both give
// the same result.
// ---------------------------------------------------------------------

/// Boolean pull BMV inner loop: the output word of one tile-row, kept
/// to the rows `want` asks for,
///   out bit r = want bit r && OR_t ((tiles[t][r] & xwords[colind[t]]) != 0).
/// The result is exactly (OR over [lo, hi)) & want for every `want`
/// (bits at or above Dim are ignored; the default asks for every row).
/// The loop stops once every wanted bit is set, because no later tile
/// can change the answer: the portable body checks after each tile it
/// reads (a tile under a zero frontier word is skipped unread), the
/// AVX2 bodies once per vector step (8 tiles at dim 4, 4 at dim 8, one
/// at dims 16 and 32) and after each tile of their scalar tails.  A
/// zero `want` reads no tile.  The stop is per tile-row, as the warp
/// that owns a tile-row would decide it together (paper §V); it is the
/// masked pull's analog of GraphBLAST's early exit.
template <int Dim>
[[nodiscard]] typename TileTraits<Dim>::word_t bbb_row_or(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* xwords, vidx_t lo, vidx_t hi,
    typename TileTraits<Dim>::word_t want =
        low_mask<typename TileTraits<Dim>::word_t>(Dim));

/// Counting pull BMV inner loop: acc[r] += popc(tiles[t][r] &
/// xwords[colind[t]]) over the tile range.
template <int Dim>
void bbf_row_accum(const typename TileTraits<Dim>::word_t* tiles,
                   const vidx_t* colind,
                   const typename TileTraits<Dim>::word_t* xwords, vidx_t lo,
                   vidx_t hi, std::int32_t* acc);

/// BMM row-popcount accumulation: pop[r] += popc(tiles[t][r]) over a
/// contiguous tile range (B's tile-row in bmm_bin_bin_sum).
template <int Dim>
void rows_pop_accum(const typename TileTraits<Dim>::word_t* tiles, vidx_t lo,
                    vidx_t hi, std::int32_t* pop);

/// Masked BMM over one B tile-row — bmm_bin_bin_sum_masked's inner
/// loop for one mask tile (tr, j).  `dense_a` is A's tile-row tr
/// scattered into a zeroed row of a.n_tile_cols() tiles (tile k at
/// dense_a[k*Dim .. k*Dim+Dim), all-zero where A has no tile), `tiles`
/// / `colind` / [lo, hi) are B's tile-row j, and `mwords` the mask
/// tile.  Returns the mask tile's share of sum((A * B^T) .* M):
///   sum over B tiles t and set bits (r, c) of mwords of
///   popc(dense_a[colind[t]][r] & tiles[t][c]).
/// The mask tile's set rows (and their lane selects) are hoisted once
/// per call; the loop over B's tiles runs inside the entry.
///   * Dims 4 and 8, the scalar body: per B tile and set row r, one
///     popcount of A's row broadcast over the byte lanes, ANDed with
///     the whole B tile and row r's byte select.  Branch-free: a
///     missing A tile is all-zero and adds 0.  A mask tile with one set
///     row runs its own loop.  The portable body at both dims, and the
///     AVX2 body at dim 8.
///   * Dim 4 (AVX2): eight B tiles per step.  One load of their
///     colind, one 32-bit gather of A's eight 4-byte tiles from
///     `dense_a` (the gather's highest address is the last tile
///     column's, inside the row), one load of the eight B tiles; per
///     set row r, one pshufb copies A's byte r over its tile's bytes
///     and zeroes the columns row r lacks, one AND with the B tiles,
///     and one pshufb of the nibble popcount LUT (a B2SR-4 byte has no
///     high nibble); byte counts sum into 64-bit lanes (psadbw).  B
///     tile-rows shorter than a step, and the last (hi - lo) % 8 tiles
///     of a longer one, run the scalar body.  Triangle counting on the
///     rmat_s16 shape runs 2.3x faster than on the scalar body (1
///     thread, 4-vCPU AVX2 host).
///     Dim 8 stays scalar: a four-tile dim-8 gather body read rmat_s16
///     forced to dim 8 faster, but slowed the dim-8 Table IX analogs
///     whose B tile-rows are short (vsp_c-60 1.20 -> 1.45 ms, debr
///     0.47 -> 0.53 ms, 1 thread), and the dim-8 graphs the end-to-end
///     benchmark serves count triangles in about 1 ms either way.
///   * Dims 16 and 32: a mask tile with at most four set bits sums its
///     hoisted (r, c) pairs branch-free, packed into 64-bit popcounts.
///     A denser one skips B tiles whose dense A tile is all-zero (every
///     word tested).  It sums the bits of its rows with at most Dim/16
///     set bits as pairs, and runs the per-row dot on the other rows:
///     the AVX2 body ANDs A's broadcast row with the whole B tile and
///     the row's lane select and counts bytes into 64-bit lanes; the
///     portable body walks the row's set bits.
template <int Dim>
[[nodiscard]] std::int64_t masked_row_dot(
    const typename TileTraits<Dim>::word_t* dense_a, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* tiles, vidx_t lo, vidx_t hi,
    const typename TileTraits<Dim>::word_t* mwords);

/// FrontierBatch pull accumulation over one tile-row:
///   acc[r] |= frows[colind[t]*Dim + j] for every set bit (r, j),
/// where acc holds Dim batch words; their incoming bits are kept (OR,
/// never overwrite).  `nfrows` is the frontier row count; set bits
/// never point past it (B2SR zero-tail invariant).
///   * Dims 4 and 8 (AVX2): a branch-free column sweep.  The Dim
///     accumulator words stay in registers (one __m256i per four rows)
///     for the whole tile range.  Per tile column j, frows[base + j] is
///     broadcast once and OR-ed into the rows whose bit j is set,
///     selected by cmpeq(and(tile rows, colbit_j), colbit_j): no
///     per-row branch, no horizontal reduction.  A tail tile-column
///     sweeps its valid columns only.
///   * Dim 16 (AVX2): per set row, a select over the tile's 16
///     frontier words and one horizontal OR.  The column sweep needs
///     16 column constants beside its 8 row and accumulator registers;
///     with AVX2's 16 vector registers it spills and measured 1.3-1.8x
///     slower.  A tail tile-column walks its set bits.
///   * Dim 32, and the portable body at every dim: the per-bit walk.
template <int Dim>
void frontier_row_accum(const typename TileTraits<Dim>::word_t* tiles,
                        const vidx_t* colind, vidx_t lo, vidx_t hi,
                        const std::uint64_t* frows, std::size_t nfrows,
                        std::uint64_t* acc);

/// Semiring BMV over one tile-row — bmv_bin_full_full's inner loop,
/// the host form of the paper's lane mapping.  Lane j of tile t holds
/// x[colind[t]*Dim + j]; bit-row r's word selects the lanes that fold
/// into row r's Dim lane accumulators L[r][0..Dim) with `reduce` (the
/// other lanes fold the identity, which is exact: L + 0, min(L, +inf)
/// and max(L, -inf) all return L).  After the last tile each row folds
/// its lanes in ascending order and adds `offset`:
///   out[r] = (((L[r][0] (+) L[r][1]) (+) L[r][2]) ... ) + offset.
/// Adding the offset after a min or max equals adding it to every lane
/// (x -> x + c is monotone), so `offset` must be 0 for kAdd.  A row
/// with no set bit gets the identity.
///
/// The AVX2 body uses 128-bit lanes at dim 4 and 256-bit lanes at dims
/// 8-32 (per bit-row and register: one table load, one select, one
/// fold; no branch).  The portable body walks the set bits into the
/// same lane accumulators.  Both reach the same lane values and fold
/// them in the same order, so out[] is bit-identical.
/// `x` holds `ncols` values; a tile column reaching past ncols is read
/// through an identity-padded copy, never past x's end (its bits past
/// ncols are zero by the B2SR invariant).
template <int Dim>
void semiring_row_fold(const typename TileTraits<Dim>::word_t* tiles,
                       const vidx_t* colind, vidx_t lo, vidx_t hi,
                       const value_t* x, vidx_t ncols, LaneReduce reduce,
                       value_t offset, value_t* out);

/// SpGEMM tile-pair accumulate into the SPA slot:
///   cacc[r] |= OR_{t set in awords[r]} bwords[t]  for r in [0, Dim).
/// Dims 4/8 run a branch-light SWAR broadcast (whole tile per machine
/// word, one column of A distributing one B row across the byte
/// lanes); dims 16/32 use the AVX2 bit-to-lane select OR.  Pure OR
/// algebra, so every path is bit-identical to the row-walk.
template <int Dim>
void spgemm_tile_accum(const typename TileTraits<Dim>::word_t* awords,
                       const typename TileTraits<Dim>::word_t* bwords,
                       typename TileTraits<Dim>::word_t* cacc);

/// The portable bodies of the entries above, same signatures and
/// results: what a host without AVX2 runs, and the oracle the parity
/// tests compare the dispatched entries against (on an AVX2 host only
/// the tests call them).
namespace portable {

template <int Dim>
[[nodiscard]] typename TileTraits<Dim>::word_t bbb_row_or(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* xwords, vidx_t lo, vidx_t hi,
    typename TileTraits<Dim>::word_t want =
        low_mask<typename TileTraits<Dim>::word_t>(Dim));

template <int Dim>
void bbf_row_accum(const typename TileTraits<Dim>::word_t* tiles,
                   const vidx_t* colind,
                   const typename TileTraits<Dim>::word_t* xwords, vidx_t lo,
                   vidx_t hi, std::int32_t* acc);

template <int Dim>
void rows_pop_accum(const typename TileTraits<Dim>::word_t* tiles, vidx_t lo,
                    vidx_t hi, std::int32_t* pop);

template <int Dim>
[[nodiscard]] std::int64_t masked_row_dot(
    const typename TileTraits<Dim>::word_t* dense_a, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* tiles, vidx_t lo, vidx_t hi,
    const typename TileTraits<Dim>::word_t* mwords);

template <int Dim>
void frontier_row_accum(const typename TileTraits<Dim>::word_t* tiles,
                        const vidx_t* colind, vidx_t lo, vidx_t hi,
                        const std::uint64_t* frows, std::size_t nfrows,
                        std::uint64_t* acc);

template <int Dim>
void semiring_row_fold(const typename TileTraits<Dim>::word_t* tiles,
                       const vidx_t* colind, vidx_t lo, vidx_t hi,
                       const value_t* x, vidx_t ncols, LaneReduce reduce,
                       value_t offset, value_t* out);

template <int Dim>
void spgemm_tile_accum(const typename TileTraits<Dim>::word_t* awords,
                       const typename TileTraits<Dim>::word_t* bwords,
                       typename TileTraits<Dim>::word_t* cacc);

}  // namespace portable

}  // namespace simd
}  // namespace bitgb
