// Compressed Sparse Row matrix.
//
// CSR is the workhorse format: the float baseline (cuSPARSE substitute)
// computes on it, B2SR is packed from it, and the paper's compression
// ratios are all reported against "32-bit floating-point CSR" (§VI-B).
// A binary CSR has an empty `val` (implicit 1.0f per nonzero); its
// storage_bytes() still counts the float array, because that is exactly
// the paper's baseline accounting.
#pragma once

#include "sparse/types.hpp"

#include <cstddef>
#include <span>
#include <vector>

namespace bitgb {

struct Csr {
  vidx_t nrows = 0;
  vidx_t ncols = 0;
  std::vector<vidx_t> rowptr;  ///< size nrows+1
  std::vector<vidx_t> colind;  ///< size nnz, sorted within each row
  std::vector<value_t> val;    ///< size nnz, or empty for binary matrices

  [[nodiscard]] eidx_t nnz() const {
    return static_cast<eidx_t>(colind.size());
  }
  [[nodiscard]] bool is_binary() const { return val.empty(); }

  /// Column indices of row r.
  [[nodiscard]] std::span<const vidx_t> row_cols(vidx_t r) const {
    return {colind.data() + rowptr[static_cast<std::size_t>(r)],
            colind.data() + rowptr[static_cast<std::size_t>(r) + 1]};
  }

  /// Values of row r (empty span for binary matrices).
  [[nodiscard]] std::span<const value_t> row_vals(vidx_t r) const {
    if (val.empty()) return {};
    return {val.data() + rowptr[static_cast<std::size_t>(r)],
            val.data() + rowptr[static_cast<std::size_t>(r) + 1]};
  }

  /// Nonzero density: nnz / (nrows*ncols) — the x axis of Figures 6/7.
  [[nodiscard]] double density() const;

  /// Bytes of the full-precision CSR representation this matrix would
  /// occupy as the paper's baseline stores it: (nrows+1 + nnz) * 4-byte
  /// ints + nnz * 4-byte floats — even for binary matrices, because the
  /// compared frameworks "mostly use float to carry the elements" (§III-B).
  [[nodiscard]] std::size_t storage_bytes() const;

  /// Structural invariants: monotone rowptr, in-range sorted columns.
  [[nodiscard]] bool validate() const;
};

/// A^T in CSR — the cusparseScsr2csc() substitute (the paper transposes
/// B2SR by transposing the upper-level CSR this way, §III-A merit 1).
[[nodiscard]] Csr transpose(const Csr& a);

/// Strict lower triangle L of a: entries with col < row.  Triangle
/// counting multiplies L by L^T (paper §V, TC).
[[nodiscard]] Csr lower_triangle(const Csr& a);

/// True if a's row lengths are skewed: the mean exceeds four times the
/// median (the upper median, for an even row count).  The test of
/// LAGraph's TriangleCount auto-sort; Graph::lower() orders a skewed
/// symmetric graph's L by degree.
[[nodiscard]] bool degrees_skewed(const Csr& a);

/// Strict lower triangle of a symmetric `a` relabeled by descending
/// degree, ties kept in vertex order: vertex v becomes its rank in that
/// order, and row i holds the ranks below i of its neighbours.  Hubs
/// take the low ids, so most rows reach the few tile columns the hubs
/// share.  Two O(nnz) passes over the new column ids in ascending
/// order (count, then fill) leave every row sorted with no sort.
/// Values are dropped (a binary L).
[[nodiscard]] Csr degree_ordered_lower(const Csr& a);

/// Symmetrize: a OR a^T (pattern union; values take the max).  Graph
/// algorithms over undirected graphs expect symmetric adjacency.
[[nodiscard]] Csr symmetrize(const Csr& a);

/// Remove diagonal entries (the paper omits self-connectivity in SSSP,
/// §V: "Only 0s along the diagonal are treated as actual zeros").
[[nodiscard]] Csr strip_diagonal(const Csr& a);

/// Out-degree per row (the PR auxiliary vector v_out_degree, §V).
[[nodiscard]] std::vector<vidx_t> out_degrees(const Csr& a);

/// True if t's pattern is the transpose of a's, in O(nnz + ncols) time
/// and with no transpose built: each column of a keeps a cursor into the
/// matching row of t, and a's rows, walked in order, must meet t's
/// entries in order.  Both must validate().  Graph::load proves a
/// persisted transpose, and the symmetrized flag, with it.
[[nodiscard]] bool is_transpose_of(const Csr& t, const Csr& a);

/// True if the pattern is symmetric: is_transpose_of(a, a).
[[nodiscard]] bool is_symmetric(const Csr& a);

}  // namespace bitgb
