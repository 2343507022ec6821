// Matrix Market (.mtx) reader/writer.
//
// The paper's dataset is the SuiteSparse Matrix Collection, which is
// distributed in Matrix Market format.  This reader handles the subset
// the collection uses for graphs: `matrix coordinate
// {pattern|real|integer} {general|symmetric|skew-symmetric}` with
// 1-based indices and '%' comments.  Symmetric inputs must be square
// and are expanded to both triangles, which is how SuiteSparse graph
// consumers interpret them.
#pragma once

#include "sparse/coo.hpp"

#include <iosfwd>
#include <stdexcept>
#include <string>

namespace bitgb {

/// Raised on malformed input.
class MatrixMarketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parse a Matrix Market stream into COO (sorted, deduplicated).
/// `pattern` entries produce a binary COO (empty val).  The stream is
/// read into one buffer and parsed in one pass; fields follow the rules
/// of `std::istream >>` (values parse as double and are cast to
/// value_t).  Duplicate entries sum in input order, a symmetric entry's
/// mirror counting right after it.  Entries that arrive sorted are not
/// re-sorted, and extra memory is O(nnz) plus the buffer.
[[nodiscard]] Coo read_matrix_market(std::istream& in);

/// File loader: the same parse over the file's bytes.
[[nodiscard]] Coo read_matrix_market_file(const std::string& path);

/// Write COO as `coordinate pattern general` (binary) or `coordinate
/// real general` (weighted), 1-based.  The file writer throws
/// MatrixMarketError naming the path when a write fails (a full disk),
/// so no truncated file passes for a written one.
void write_matrix_market(std::ostream& out, const Coo& a);
void write_matrix_market_file(const std::string& path, const Coo& a);

}  // namespace bitgb
