#include "sparse/convert.hpp"

#include <utility>

namespace bitgb {

Csr coo_to_csr(Coo a) {
  a.sort_and_dedup();

  Csr out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.rowptr.assign(static_cast<std::size_t>(a.nrows) + 1, 0);
  for (const vidx_t r : a.row) {
    ++out.rowptr[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t i = 1; i < out.rowptr.size(); ++i) {
    out.rowptr[i] += out.rowptr[i - 1];
  }
  out.colind = std::move(a.col);
  out.val = std::move(a.val);
  return out;
}

Coo csr_to_coo(const Csr& a) {
  Coo out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.col = a.colind;
  out.val = a.val;
  out.row.reserve(a.colind.size());
  for (vidx_t r = 0; r < a.nrows; ++r) {
    const auto lo = a.rowptr[static_cast<std::size_t>(r)];
    const auto hi = a.rowptr[static_cast<std::size_t>(r) + 1];
    for (vidx_t k = lo; k < hi; ++k) out.row.push_back(r);
  }
  return out;
}

std::vector<value_t> csr_to_dense(const Csr& a) {
  std::vector<value_t> d(static_cast<std::size_t>(a.nrows) *
                             static_cast<std::size_t>(a.ncols),
                         0.0f);
  for (vidx_t r = 0; r < a.nrows; ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      d[static_cast<std::size_t>(r) * static_cast<std::size_t>(a.ncols) +
        static_cast<std::size_t>(cols[i])] = vals.empty() ? 1.0f : vals[i];
    }
  }
  return d;
}

}  // namespace bitgb
