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
//   * bit-to-lane mask expansion + lane-wise OR for the 64-wide
//     FrontierBatch accumulation,
//   * bit-row word -> lane select + lane-wise add / min / max for the
//     semiring BMV (one float lane per tile column).
//
// Backend selection is two-staged, as a GPU build is:
//   * build time: AVX2 and SSE4.2 code paths are compiled whenever the
//     toolchain supports function target attributes (gcc/clang on
//     x86-64) and BITGB_SIMD is ON; no -march flag is required, though
//     -march=native lets the *scalar* paths vectorize too (see
//     BUILDING.md);
//   * run time: the first kernel call CPUID-probes the host
//     (__builtin_cpu_supports) and caches the strongest supported
//     backend; a machine without AVX2/SSE4.2 silently runs the portable
//     SWAR/scalar fallback.
//
// Every integer helper is exact (OR / popcount-add are associative and
// commutative), so each backend is bit-for-bit identical to the scalar
// kernels; the float helper (semiring_row_fold) is bit-identical
// because both of its bodies fold the same lane values in the same
// order.  test_simd_parity asserts both over the oracle corpus.
//
// Kernel-variant plumbing: kernels take a trailing Exec
// (platform/exec.hpp) whose variant defaults to kAuto — resolved
// through the measured per-(kernel, dim) preference table below, NOT
// through any process-wide setting.  There is no global variant state:
// benchmarks ablate scalar vs SIMD by passing an explicit Exec, and two
// concurrent queries can pin different sides through their Contexts.
#pragma once

#include "core/semiring_ops.hpp"
#include "core/tile_traits.hpp"
#include "sparse/types.hpp"

#include <cstdint>

namespace bitgb {

/// Which implementation of a hot kernel to run.  kAuto defers to the
/// per-(kernel, dim) preference table (preferred_variant); the explicit
/// values pin one side.
enum class KernelVariant { kAuto = 0, kScalar, kSimd };

/// The hot kernels that exist in both variants — the rows of the kAuto
/// preference table (preferred_variant below).
enum class HotKernel {
  kBmvBinBinBin,
  kBmvBinBinBinMasked,
  kBmvBinBinFull,
  kBmvBinBinFullMasked,
  kBmmBinBinSum,
  kBmmBinBinSumMasked,
  kFrontierPull,
  kFrontierPullMasked,
  kPackScatter,
  kSpgemmAccum,
};

/// The variant an unpinned process should run for one (kernel, tile
/// dim) cell.  When the scalar paths were compiled under a wide ISA
/// (-march=native on an AVX2+ host) the auto-vectorized scalar loops
/// beat the hand-written engine in a few cells (the committed
/// BENCH_kernels.json records which); this table encodes those
/// measured winners instead of blanket-preferring SIMD.  On a default
/// build (no -march) the engine wins every cell and the table is
/// all-kSimd.  Never returns kAuto.
[[nodiscard]] KernelVariant preferred_variant(HotKernel k, int dim);

/// Resolve a requested variant to kScalar or kSimd.  Explicit values
/// win; kAuto resolves through the per-(kernel, dim) preference table.
/// The overload without kernel context keeps the historical blanket-
/// kSimd default (for callers with no HotKernel row).  Pure functions
/// of their arguments: no process state, no environment.
[[nodiscard]] KernelVariant resolve_kernel_variant(KernelVariant requested);
[[nodiscard]] KernelVariant resolve_kernel_variant(KernelVariant requested,
                                                   HotKernel k, int dim);

[[nodiscard]] const char* kernel_variant_name(KernelVariant v);

/// Parse "scalar" / "simd" / "auto" (as Context::from_env accepts).
/// Returns false on anything else.
[[nodiscard]] bool parse_kernel_variant(const char* s, KernelVariant& out);

namespace simd {

/// Instruction-set backend of the engine, strongest first.
enum class Backend { kAvx2, kSse42, kScalar };

/// Runtime-verified backend: the strongest compiled-in backend the host
/// CPU actually supports (CPUID-checked once, then cached).
[[nodiscard]] Backend active_backend();

[[nodiscard]] const char* backend_name(Backend b);

/// True when active_backend() is a vector backend (not kScalar).
[[nodiscard]] bool vector_backend_available();

// ---------------------------------------------------------------------
// Tile-row inner loops.  All take raw pointers into the B2SR arrays:
// `tiles` is the contiguous tile-word store (tile t occupies
// tiles[t*Dim .. t*Dim+Dim)), `colind` the tile-column index array,
// and [lo, hi) the tile range of one tile-row.  Results are exactly the
// scalar kernels'.
// ---------------------------------------------------------------------

/// Boolean pull BMV inner loop: the output word of one tile-row,
///   out bit r = OR_t ((tiles[t][r] & xwords[colind[t]]) != 0).
template <int Dim>
[[nodiscard]] typename TileTraits<Dim>::word_t bbb_row_or(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* xwords, vidx_t lo, vidx_t hi);

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

/// Masked BMM tile-pair dot: sum over rows r and set bits c of
/// mwords[r] of popc(awords[r] & bwords[c]) — one aligned (A, B^T, M)
/// tile triple of bmm_bin_bin_sum_masked.
template <int Dim>
[[nodiscard]] std::int64_t masked_pair_dot(
    const typename TileTraits<Dim>::word_t* awords,
    const typename TileTraits<Dim>::word_t* bwords,
    const typename TileTraits<Dim>::word_t* mwords);

/// FrontierBatch pull accumulation over one tile-row:
///   acc[r] |= frows[colind[t]*Dim + j] for every set bit (r, j),
/// where acc holds Dim batch words.  `nfrows` is the frontier row
/// count; tail tile-columns whose block would read past it take the
/// scalar per-bit path (set bits never point past nfrows).
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
/// `vector` false runs the scalar body, which walks the set bits into
/// the same lane accumulators.  `vector` true runs the CPUID-dispatched
/// AVX2 body (128-bit lanes at dim 4, 256-bit at dims 8-32; per bit-row
/// and register: one table load, one select, one fold; no branch) and
/// the scalar body on other backends.  Both bodies reach the same lane
/// values and fold them in the same order, so out[] is bit-identical.
/// `x` holds `ncols` values; a tile column reaching past ncols is read
/// through an identity-padded copy, never past x's end (its bits past
/// ncols are zero by the B2SR invariant).
template <int Dim>
void semiring_row_fold(const typename TileTraits<Dim>::word_t* tiles,
                       const vidx_t* colind, vidx_t lo, vidx_t hi,
                       const value_t* x, vidx_t ncols, LaneReduce reduce,
                       value_t offset, bool vector, value_t* out);

/// Ingest bit-scatter: consume the run of sorted CSR column indices
/// cols[i..n) that fall inside one tile (base <= c < base + Dim), OR
/// `1 << (c - base)` for each into `w`, and return the index one past
/// the run.  The AVX2 path shifts eight columns per iteration
/// (variable-shift + lane OR-reduce); the scalar body is the per-column
/// loop.  Exact for any sorted input, including duplicates (OR is
/// idempotent).
template <int Dim>
[[nodiscard]] std::size_t pack_scatter_run(const vidx_t* cols, std::size_t i,
                                           std::size_t n, vidx_t base,
                                           typename TileTraits<Dim>::word_t& w);

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

}  // namespace simd
}  // namespace bitgb
