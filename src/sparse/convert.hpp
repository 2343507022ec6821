// Format conversions (COO <-> CSR, a dense test oracle).  B2SR packing
// lives in core/pack.hpp; an edge list reaches it through coo_to_csr.
#pragma once

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace bitgb {

/// Build CSR from COO.  Input need not be sorted; duplicates are merged
/// (values summed in input order, pattern kept single) as in
/// Coo::sort_and_dedup, which sorts `a` in place: input that is already
/// sorted is not re-sorted, and extra memory is O(nnz).  `a` is taken
/// by value and its columns and values move into the CSR, so a caller
/// that passes an rvalue copies nothing.
[[nodiscard]] Csr coo_to_csr(Coo a);

/// Expand CSR back to (sorted) COO.
[[nodiscard]] Coo csr_to_coo(const Csr& a);

/// Dense row-major expansion: the small-matrix tests' oracle, which no
/// library code calls.
[[nodiscard]] std::vector<value_t> csr_to_dense(const Csr& a);

}  // namespace bitgb
