// FrontierBatch — up to 64 packed frontiers as the bit-columns of an
// n x B bit-matrix (the batched multi-source traversal operand).
//
// The paper's headline bit-level win generalizes from vectors to
// matrices: where a single BFS expands one frontier with a BMV sweep,
// a *batch* of frontiers packed side by side turns B sparse-matrix
// -vector sweeps into one bit-matrix-matrix (BMM) sweep over the same
// B2SR tiles (§IV Listing 2 is the sum-only instance; here the product
// matrix itself is the result).  Row v holds one machine word whose bit
// b answers "is vertex v in frontier b?", so a pull expands all B
// frontiers in one pass over A's tiles — the traversal of the
// adjacency structure is amortized across the whole batch.  At dims 4
// and 8 that pass is a branch-free column sweep: per tile column one
// broadcast frontier word, OR-ed under a lane select into the four
// rows of a register (simd::frontier_row_accum), so its cost follows
// the tile count, not the bit count.
//
// The layout is row-major by vertex (one std::uint64_t per vertex)
// rather than tile-packed by Dim: the batch word is the *inner*
// dimension the kernels stream, so it is independent of the tile size
// of the adjacency operand and the same FrontierBatch works against
// B2SR-4 through B2SR-32 without repacking.
//
// Invariants (checked by validate()):
//   * 1 <= batch <= kMaxBatch and rows.size() == n;
//   * lane-tail bits (bit indices >= batch) are zero in every row —
//     the matrix analog of PackedVec's zero tail bits, which the
//     complemented-mask kernels rely on exactly as bmv does.
#pragma once

#include "core/b2sr.hpp"
#include "platform/exec.hpp"
#include "platform/intrinsics.hpp"
#include "sparse/types.hpp"

#include <cstdint>
#include <vector>

namespace bitgb {

struct FrontierBatch {
  using word_t = std::uint64_t;
  static constexpr int kMaxBatch = 64;  ///< frontiers per word

  vidx_t n = 0;               ///< vertices (rows)
  int batch = 0;              ///< logical frontier count (columns), <= 64
  std::vector<word_t> rows;   ///< n words; bit b of rows[v] = v in frontier b

  FrontierBatch() = default;
  FrontierBatch(vidx_t nverts, int nbatch) { resize(nverts, nbatch); }

  /// Resize and zero every bit (always reassigns, like PackedVecT).
  void resize(vidx_t nverts, int nbatch) {
    n = nverts;
    batch = nbatch;
    rows.assign(static_cast<std::size_t>(nverts), word_t{0});
  }

  void clear_bits() { rows.assign(rows.size(), word_t{0}); }

  /// Mask with one bit per *live* lane (low `batch` bits set).
  [[nodiscard]] word_t lane_mask() const { return low_mask<word_t>(batch); }

  [[nodiscard]] bool get(vidx_t v, int b) const {
    return get_bit(rows[static_cast<std::size_t>(v)], b) != 0;
  }
  void set(vidx_t v, int b) {
    auto& w = rows[static_cast<std::size_t>(v)];
    w = set_bit(w, b);
  }
  void reset(vidx_t v, int b) {
    auto& w = rows[static_cast<std::size_t>(v)];
    w = static_cast<word_t>(w & ~(word_t{1} << b));
  }

  /// Total set bits across the batch (sum of all frontier sizes).
  [[nodiscard]] eidx_t count() const {
    eidx_t c = 0;
    for (const word_t w : rows) c += popcount(w);
    return c;
  }

  [[nodiscard]] bool any() const {
    for (const word_t w : rows) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Extract frontier column b as a dense bool vector.
  [[nodiscard]] std::vector<bool> column(int b) const {
    std::vector<bool> out(static_cast<std::size_t>(n));
    for (vidx_t v = 0; v < n; ++v) out[static_cast<std::size_t>(v)] = get(v, b);
    return out;
  }

  /// Seed batch: frontier b holds exactly sources[b].  Throws
  /// std::invalid_argument on an empty/oversized batch or an
  /// out-of-range source (duplicates are allowed: independent columns).
  [[nodiscard]] static FrontierBatch from_sources(
      vidx_t nverts, const std::vector<vidx_t>& sources);

  /// In-place form of from_sources: same validation, but reuses this
  /// batch's row buffer — the zero-allocation path msbfs's Workspace
  /// overload seeds its frontier through.
  void assign_sources(vidx_t nverts, const std::vector<vidx_t>& sources);

  /// Structural invariants: batch in [1, kMaxBatch], row count == n,
  /// no lane-tail bits.
  [[nodiscard]] bool validate() const;
};

// ---------------------------------------------------------------------
// Batched Boolean expansion kernels (the BMM frontier sweep)
// ---------------------------------------------------------------------
//
// next = A (.) F over the Boolean OR-AND semiring, where F is the
// n x batch frontier bit-matrix:
//
//   next[i] = OR_{j in adj(i)} F[j]
//
// i.e. one mxv per bit-column, fused into a single sweep over A's B2SR
// tiles: per set adjacency bit one 64-bit OR folds the corresponding
// frontier row into all lanes at once.  Parallel over tile-rows (the
// warp-consolidation mapping); output rows of distinct tile-rows are
// disjoint, so no atomics.  Requires f.n == a.ncols; next is resized to
// a.nrows with f's batch width.

/// The pull takes a trailing Exec (platform/exec.hpp) carrying the
/// thread budget and accumulates through the SIMD engine's
/// frontier_row_accum (64-bit ORs, exact in either CPUID-picked body).
/// The push kernel is a frontier-proportional scatter and stays a
/// plain loop by design.
///
/// The pull is masked: the mask row word is AND-ed right before the
/// output store (the paper's §V masking design lifted to the batch), so
/// masked-off (row, lane) positions store zero.  complement applies the
/// GraphBLAS structural complement — BFS passes visited with
/// complement=true.  The kernel first ORs f's rows into a live-lane
/// mask: a lane with an empty frontier adds nothing, so clamping each
/// store by it is exact, and it clears the lane-tail bits a
/// complemented mask would set (the FrontierBatch invariant).  Mask
/// first: a tile-row whose rows open no live lane is skipped whole and
/// stores zero, so a late level costs the tile-rows some live lane
/// still has open, not the whole matrix.
template <int Dim>
void bmm_frontier_masked(const B2srT<Dim>& a, const FrontierBatch& f,
                         const FrontierBatch& mask, bool complement,
                         FrontierBatch& next, Exec exec = {});

/// Push-direction batched expansion (the batch analog of the BMV
/// active-list push): work proportional to the frontier's tile-rows
/// rather than the whole matrix, which keeps long-diameter traversals
/// (road / band graphs) frontier-proportional exactly as the
/// direction-optimized single-source BFS is.  Takes A itself (vxm
/// selects A's rows): next[c] |= f[r] & ~mask[c] for every set bit
/// (r, c) of an active tile-row — the mask is always complemented, as
/// msbfs passes visited.  The caller supplies the
/// tile-row indices holding live frontier rows (`active`, each once;
/// msbfs lists them sorted);
/// `next` must arrive all-zero and sized to a.ncols with f's batch
/// width; the kernel appends to `touched` each row of `next` it turns
/// non-zero (duplicate-free).  Serial, like the BMV active-list push —
/// a sparse frontier does not amortize a parallel region.
template <int Dim>
void bmm_frontier_push_masked(const B2srT<Dim>& a, const FrontierBatch& f,
                              const std::vector<vidx_t>& active,
                              const FrontierBatch& mask, FrontierBatch& next,
                              std::vector<vidx_t>& touched);

}  // namespace bitgb
