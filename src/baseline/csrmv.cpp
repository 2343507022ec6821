#include "baseline/csrmv.hpp"

#include "platform/parallel.hpp"

#include <cassert>

namespace bitgb::baseline {

void csrmv(const Csr& a, const std::vector<value_t>& x,
           std::vector<value_t>& y, Exec exec) {
  assert(static_cast<vidx_t>(x.size()) == a.ncols);
  y.assign(static_cast<std::size_t>(a.nrows), 0.0f);
  const bool weighted = !a.val.empty();
  const vidx_t* rowptr = a.rowptr.data();
  const vidx_t* colind = a.colind.data();
  const value_t* val = a.val.data();
  const value_t* xp = x.data();
  value_t* yp = y.data();
  // Value captures only (see parallel.hpp on closure escape) — this is
  // the comparison baseline, so it must not carry avoidable overhead.
  parallel_for(exec.threads, vidx_t{0}, a.nrows, [=](vidx_t r) {
    const auto lo = rowptr[static_cast<std::size_t>(r)];
    const auto hi = rowptr[static_cast<std::size_t>(r) + 1];
    value_t acc = 0.0f;
    for (vidx_t k = lo; k < hi; ++k) {
      const auto i = static_cast<std::size_t>(k);
      const value_t av = weighted ? val[i] : 1.0f;
      acc += av * xp[static_cast<std::size_t>(colind[i])];
    }
    yp[static_cast<std::size_t>(r)] = acc;
  });
}

}  // namespace bitgb::baseline
