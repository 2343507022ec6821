#include "sparse/csr.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace bitgb {

double Csr::density() const {
  if (nrows == 0 || ncols == 0) return 0.0;
  return static_cast<double>(nnz()) /
         (static_cast<double>(nrows) * static_cast<double>(ncols));
}

std::size_t Csr::storage_bytes() const {
  const std::size_t n = static_cast<std::size_t>(nnz());
  return (rowptr.size() + n) * sizeof(vidx_t) + n * sizeof(value_t);
}

bool Csr::validate() const {
  if (nrows < 0 || ncols < 0) return false;
  if (rowptr.size() != static_cast<std::size_t>(nrows) + 1) return false;
  if (rowptr.front() != 0) return false;
  if (rowptr.back() != static_cast<vidx_t>(colind.size())) return false;
  if (!val.empty() && val.size() != colind.size()) return false;
  for (vidx_t r = 0; r < nrows; ++r) {
    const auto lo = rowptr[static_cast<std::size_t>(r)];
    const auto hi = rowptr[static_cast<std::size_t>(r) + 1];
    // A later row's decrease would fail too late: bound hi by nnz first.
    if (lo > hi || hi > rowptr.back()) return false;
    for (vidx_t k = lo; k < hi; ++k) {
      const vidx_t c = colind[static_cast<std::size_t>(k)];
      if (c < 0 || c >= ncols) return false;
      if (k > lo && colind[static_cast<std::size_t>(k) - 1] >= c) return false;
    }
  }
  return true;
}

Csr transpose(const Csr& a) {
  Csr t;
  t.nrows = a.ncols;
  t.ncols = a.nrows;
  t.rowptr.assign(static_cast<std::size_t>(t.nrows) + 1, 0);

  // Counting pass over column indices.
  for (const vidx_t c : a.colind) {
    ++t.rowptr[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t i = 1; i < t.rowptr.size(); ++i) {
    t.rowptr[i] += t.rowptr[i - 1];
  }

  t.colind.resize(a.colind.size());
  const bool weighted = !a.val.empty();
  if (weighted) t.val.resize(a.val.size());

  std::vector<vidx_t> cursor(t.rowptr.begin(), t.rowptr.end() - 1);
  for (vidx_t r = 0; r < a.nrows; ++r) {
    const auto lo = a.rowptr[static_cast<std::size_t>(r)];
    const auto hi = a.rowptr[static_cast<std::size_t>(r) + 1];
    for (vidx_t k = lo; k < hi; ++k) {
      const vidx_t c = a.colind[static_cast<std::size_t>(k)];
      const auto dst = static_cast<std::size_t>(cursor[static_cast<std::size_t>(c)]++);
      t.colind[dst] = r;
      if (weighted) t.val[dst] = a.val[static_cast<std::size_t>(k)];
    }
  }
  // Row-major emission over sorted source rows keeps each output row's
  // column indices sorted, so no per-row sort is needed.
  return t;
}

namespace {

/// A copy of `a` without one run of each row: the positions [lo, hi)
/// that `cut(r, cols)` returns.  Rows are sorted, so a column range is
/// such a run.  The output is reserved from the cuts first, so its
/// arrays hold exactly nnz.
template <typename Cut>
Csr without_runs(const Csr& a, Cut cut) {
  Csr out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.rowptr.assign(static_cast<std::size_t>(a.nrows) + 1, 0);
  for (vidx_t r = 0; r < a.nrows; ++r) {
    const auto cols = a.row_cols(r);
    const auto [lo, hi] = cut(r, cols);
    out.rowptr[static_cast<std::size_t>(r) + 1] =
        out.rowptr[static_cast<std::size_t>(r)] +
        static_cast<vidx_t>(cols.size() - (hi - lo));
  }
  const auto nnz = static_cast<std::size_t>(out.rowptr.back());
  out.colind.reserve(nnz);
  const bool weighted = !a.val.empty();
  if (weighted) out.val.reserve(nnz);
  for (vidx_t r = 0; r < a.nrows; ++r) {
    const auto cols = a.row_cols(r);
    const auto [lo, hi] = cut(r, cols);
    out.colind.insert(out.colind.end(), cols.begin(), cols.begin() + lo);
    out.colind.insert(out.colind.end(), cols.begin() + hi, cols.end());
    if (weighted) {
      const auto vals = a.row_vals(r);
      out.val.insert(out.val.end(), vals.begin(), vals.begin() + lo);
      out.val.insert(out.val.end(), vals.begin() + hi, vals.end());
    }
  }
  return out;
}

/// Position of the first column >= c in a sorted row.
std::ptrdiff_t first_at_least(std::span<const vidx_t> cols, vidx_t c) {
  return std::lower_bound(cols.begin(), cols.end(), c) - cols.begin();
}

/// Writes the union of row r of a and row r of t to `cols` / `vals`
/// (vals may be null), in column order; a column in both takes the
/// larger value, and a binary side counts as 1.0.
void merge_row_union(const Csr& a, const Csr& t, vidx_t r, vidx_t* cols,
                     value_t* vals) {
  const auto ac = a.row_cols(r);
  const auto tc = t.row_cols(r);
  const auto av = a.row_vals(r);
  const auto tv = t.row_vals(r);
  const auto a_val = [&](std::size_t i) { return av.empty() ? 1.0f : av[i]; };
  const auto t_val = [&](std::size_t j) { return tv.empty() ? 1.0f : tv[j]; };
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  while (i < ac.size() && j < tc.size()) {
    const vidx_t x = ac[i];
    const vidx_t y = tc[j];
    cols[k] = std::min(x, y);
    if (vals != nullptr) {
      vals[k] = x < y ? a_val(i) : y < x ? t_val(j) : std::max(a_val(i), t_val(j));
    }
    i += x <= y ? 1 : 0;
    j += y <= x ? 1 : 0;
    ++k;
  }
  for (; i < ac.size(); ++i, ++k) {
    cols[k] = ac[i];
    if (vals != nullptr) vals[k] = a_val(i);
  }
  for (; j < tc.size(); ++j, ++k) {
    cols[k] = tc[j];
    if (vals != nullptr) vals[k] = t_val(j);
  }
}

}  // namespace

Csr lower_triangle(const Csr& a) {
  return without_runs(a, [](vidx_t r, std::span<const vidx_t> cols) {
    return std::pair{first_at_least(cols, r),
                     static_cast<std::ptrdiff_t>(cols.size())};
  });
}

bool degrees_skewed(const Csr& a) {
  if (a.nrows == 0) return false;
  std::vector<vidx_t> deg = out_degrees(a);
  const auto mid = deg.begin() + static_cast<std::ptrdiff_t>(deg.size() / 2);
  std::nth_element(deg.begin(), mid, deg.end());
  // mean > 4 * median, in integers: at most half the rows reach the
  // median, so 4 * median * nrows <= 8 * nnz cannot overflow.
  return a.nnz() > 4 * static_cast<eidx_t>(*mid) * a.nrows;
}

Csr degree_ordered_lower(const Csr& a) {
  const vidx_t n = a.nrows;
  const auto deg = [&](vidx_t v) {
    return a.rowptr[static_cast<std::size_t>(v) + 1] -
           a.rowptr[static_cast<std::size_t>(v)];
  };
  // A stable counting sort on descending degree: bucket max_deg - d
  // holds the degree-d vertices, filled in vertex order.
  vidx_t max_deg = 0;
  for (vidx_t v = 0; v < n; ++v) max_deg = std::max(max_deg, deg(v));
  std::vector<vidx_t> next(static_cast<std::size_t>(max_deg) + 1, 0);
  for (vidx_t v = 0; v < n; ++v) {
    ++next[static_cast<std::size_t>(max_deg - deg(v))];
  }
  vidx_t at = 0;
  for (vidx_t& b : next) at += std::exchange(b, at);
  std::vector<vidx_t> rank(static_cast<std::size_t>(n));
  std::vector<vidx_t> order(static_cast<std::size_t>(n));
  for (vidx_t v = 0; v < n; ++v) {
    const vidx_t r = next[static_cast<std::size_t>(max_deg - deg(v))]++;
    rank[static_cast<std::size_t>(v)] = r;
    order[static_cast<std::size_t>(r)] = v;
  }

  // A is symmetric, so column j of the relabeled A is row order[j] of
  // A.  Both passes walk j upwards over the entries (i, j) below the
  // diagonal: they agree on every row's length whatever the input, and
  // the fill appends each row's columns in ascending order.
  const auto walk = [&](auto&& visit) {
    for (vidx_t j = 0; j < n; ++j) {
      for (const vidx_t u : a.row_cols(order[static_cast<std::size_t>(j)])) {
        const vidx_t i = rank[static_cast<std::size_t>(u)];
        if (i > j) visit(static_cast<std::size_t>(i), j);
      }
    }
  };
  Csr l;
  l.nrows = n;
  l.ncols = n;
  l.rowptr.assign(static_cast<std::size_t>(n) + 1, 0);
  walk([&](std::size_t i, vidx_t) { ++l.rowptr[i + 1]; });
  for (std::size_t i = 1; i < l.rowptr.size(); ++i) {
    l.rowptr[i] += l.rowptr[i - 1];
  }
  l.colind.resize(static_cast<std::size_t>(l.rowptr.back()));
  std::vector<vidx_t> cursor(l.rowptr.begin(), l.rowptr.end() - 1);
  walk([&](std::size_t i, vidx_t j) {
    l.colind[static_cast<std::size_t>(cursor[i]++)] = j;
  });
  return l;
}

Csr symmetrize(const Csr& a) {
  const Csr t = transpose(a);
  Csr s;
  s.nrows = a.nrows;
  s.ncols = a.ncols;
  s.rowptr.assign(static_cast<std::size_t>(a.nrows) + 1, 0);
  // Size the output from the union counts, then merge into it.  A row
  // of t adds the columns its row of a did not mark; a marker array
  // counts that without the merge's chain of dependent compares.
  {
    std::vector<vidx_t> marked_by(static_cast<std::size_t>(a.ncols), -1);
    for (vidx_t r = 0; r < a.nrows; ++r) {
      vidx_t n = 0;
      for (const vidx_t c : a.row_cols(r)) {
        marked_by[static_cast<std::size_t>(c)] = r;
        ++n;
      }
      for (const vidx_t c : t.row_cols(r)) {
        n += marked_by[static_cast<std::size_t>(c)] != r ? 1 : 0;
      }
      s.rowptr[static_cast<std::size_t>(r) + 1] =
          s.rowptr[static_cast<std::size_t>(r)] + n;
    }
  }
  const auto nnz = static_cast<std::size_t>(s.rowptr.back());
  s.colind.resize(nnz);
  const bool weighted = !a.val.empty() || !t.val.empty();
  if (weighted) s.val.resize(nnz);
  for (vidx_t r = 0; r < a.nrows; ++r) {
    const auto at = static_cast<std::size_t>(s.rowptr[static_cast<std::size_t>(r)]);
    merge_row_union(a, t, r, s.colind.data() + at,
                    weighted ? s.val.data() + at : nullptr);
  }
  return s;
}

Csr strip_diagonal(const Csr& a) {
  return without_runs(a, [](vidx_t r, std::span<const vidx_t> cols) {
    const std::ptrdiff_t at = first_at_least(cols, r);
    const bool diagonal =
        at < static_cast<std::ptrdiff_t>(cols.size()) && cols[static_cast<std::size_t>(at)] == r;
    return std::pair{at, at + (diagonal ? 1 : 0)};
  });
}

std::vector<vidx_t> out_degrees(const Csr& a) {
  std::vector<vidx_t> deg(static_cast<std::size_t>(a.nrows));
  for (vidx_t r = 0; r < a.nrows; ++r) {
    deg[static_cast<std::size_t>(r)] =
        a.rowptr[static_cast<std::size_t>(r) + 1] -
        a.rowptr[static_cast<std::size_t>(r)];
  }
  return deg;
}

bool is_transpose_of(const Csr& t, const Csr& a) {
  if (t.nrows != a.ncols || t.ncols != a.nrows || t.nnz() != a.nnz()) {
    return false;
  }
  // Entry (r, c) of a must be the next unmatched entry of row c of t.
  // Every entry of a then claims a distinct entry of t, and the equal
  // counts leave none of t unclaimed.
  std::vector<vidx_t> cursor(t.rowptr.begin(), t.rowptr.end() - 1);
  for (vidx_t r = 0; r < a.nrows; ++r) {
    for (const vidx_t c : a.row_cols(r)) {
      vidx_t& at = cursor[static_cast<std::size_t>(c)];
      if (at == t.rowptr[static_cast<std::size_t>(c) + 1] ||
          t.colind[static_cast<std::size_t>(at)] != r) {
        return false;
      }
      ++at;
    }
  }
  return true;
}

bool is_symmetric(const Csr& a) { return is_transpose_of(a, a); }

}  // namespace bitgb
