// Full-precision CSR SpMV — the cusparseScsrmv() substitute.
//
// This is the baseline every BMV speedup in Figures 6/7 is measured
// against: y = A*x with A in CSR carrying one 32-bit float per nonzero.
// Binary matrices are given unit values before benchmarking, exactly as
// the compared GPU frameworks "use float to carry the elements" (§III-B).
// Parallelized row-wise (one row range per thread ≙ the row-split
// csrmv of cuSPARSE) under the caller's Exec thread budget.
#pragma once

#include "platform/exec.hpp"
#include "sparse/csr.hpp"

#include <vector>

namespace bitgb::baseline {

/// y = A * x (plus-times).  A binary A is treated as all-ones.
/// Preconditions: x.size() == A.ncols; y is resized to A.nrows.
void csrmv(const Csr& a, const std::vector<value_t>& x,
           std::vector<value_t>& y, Exec exec = {});

}  // namespace bitgb::baseline
