// Coordinate-format sparse matrix (edge list).
//
// COO is the interchange format: generators and Matrix Market I/O emit
// COO; everything computational converts to CSR (convert.hpp).  For
// binary matrices `val` is empty and every entry is implicitly 1.0f.
#pragma once

#include "sparse/types.hpp"

#include <vector>

namespace bitgb {

struct Coo {
  vidx_t nrows = 0;
  vidx_t ncols = 0;
  std::vector<vidx_t> row;   ///< row index per nonzero
  std::vector<vidx_t> col;   ///< column index per nonzero
  std::vector<value_t> val;  ///< empty for binary (pattern) matrices

  [[nodiscard]] eidx_t nnz() const { return static_cast<eidx_t>(row.size()); }
  [[nodiscard]] bool is_binary() const { return val.empty(); }

  /// Append one entry.  Binary matrices must stay binary (no val pushes
  /// after pattern pushes and vice versa); enforced by assertions in
  /// validate().
  void push(vidx_t r, vidx_t c) {
    row.push_back(r);
    col.push_back(c);
  }
  void push(vidx_t r, vidx_t c, value_t v) {
    row.push_back(r);
    col.push_back(c);
    val.push_back(v);
  }

  /// Sort entries by (row, col) and merge duplicates.  Duplicate merge
  /// for binary matrices keeps a single entry; for weighted matrices the
  /// values are summed (Matrix Market convention), in input order.
  /// Entries that already increase strictly cost one scan and are left
  /// as they are; others go through a stable radix sort whose extra
  /// memory is O(nnz), whatever the shape.
  void sort_and_dedup();

  /// Structural sanity: indices in range, val size consistent.
  /// Returns false (and leaves the matrix untouched) on violation.
  [[nodiscard]] bool validate() const;
};

/// Make a weighted copy of a binary COO with all values = 1.0f (the
/// representation the float-CSR baseline computes on).
[[nodiscard]] Coo with_unit_values(const Coo& a);

/// Drop values, keeping only the pattern (the representation B2SR packs).
/// Copies the indices, never the values.
[[nodiscard]] Coo pattern_of(const Coo& a);

}  // namespace bitgb
