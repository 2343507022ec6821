#include "sparse/coo.hpp"

#include <array>
#include <cstdint>

namespace bitgb {

namespace {

/// Flipping an index's sign bit maps INT32_MIN..INT32_MAX onto
/// 0..UINT32_MAX in order, so the unsigned order of a packed key is the
/// signed (row, col) order.
constexpr std::uint32_t kSignFlip = 0x80000000u;

std::uint64_t pack_key(vidx_t r, vidx_t c) {
  return (std::uint64_t{static_cast<std::uint32_t>(r) ^ kSignFlip} << 32) |
         (static_cast<std::uint32_t>(c) ^ kSignFlip);
}

/// Stable LSD radix sort of the entries by packed (row, col) key, one
/// byte per pass, values carried along.  A byte that is the same in
/// every key would leave the order as it is, so its pass is skipped.
/// Extra memory is two key arrays and one value array: O(nnz).
void radix_sort(std::vector<vidx_t>& row, std::vector<vidx_t>& col,
                std::vector<value_t>& val) {
  const std::size_t n = row.size();
  const bool weighted = !val.empty();
  std::vector<std::uint64_t> keys(n);
  std::uint64_t any = 0;
  std::uint64_t all = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = pack_key(row[i], col[i]);
    any |= keys[i];
    all &= keys[i];
  }
  const std::uint64_t varying = any ^ all;

  std::vector<std::uint64_t> keys_out(n);
  std::vector<value_t> val_out(weighted ? n : 0);
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xffu) == 0) continue;
    std::array<std::size_t, 256> next{};
    for (const std::uint64_t k : keys) ++next[(k >> shift) & 0xffu];
    std::size_t offset = 0;
    for (std::size_t& slot : next) {
      const std::size_t count = slot;
      slot = offset;
      offset += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t dst = next[(keys[i] >> shift) & 0xffu]++;
      keys_out[dst] = keys[i];
      if (weighted) val_out[dst] = val[i];
    }
    keys.swap(keys_out);
    if (weighted) val.swap(val_out);
  }
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = static_cast<vidx_t>(static_cast<std::uint32_t>(keys[i] >> 32) ^
                                 kSignFlip);
    col[i] = static_cast<vidx_t>(static_cast<std::uint32_t>(keys[i]) ^
                                 kSignFlip);
  }
}

}  // namespace

void Coo::sort_and_dedup() {
  const std::size_t n = row.size();
  const bool weighted = !val.empty();
  // One scan decides the work: entries that already increase strictly
  // are the answer, and non-decreasing ones need only the merge below.
  bool sorted = true;
  bool strict = true;
  for (std::size_t i = 1; i < n && sorted; ++i) {
    if (row[i - 1] != row[i]) {
      sorted = row[i - 1] < row[i];
    } else if (col[i - 1] != col[i]) {
      sorted = col[i - 1] < col[i];
    } else {
      strict = false;
    }
  }
  if (sorted && strict) return;
  if (!sorted) radix_sort(row, col, val);

  // Merge runs of equal (row, col) in place.  The sort is stable, so a
  // run's values are summed in input order (Matrix Market convention).
  std::size_t out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (out > 0 && row[out - 1] == row[i] && col[out - 1] == col[i]) {
      if (weighted) val[out - 1] += val[i];
      continue;
    }
    row[out] = row[i];
    col[out] = col[i];
    if (weighted) val[out] = val[i];
    ++out;
  }
  row.resize(out);
  col.resize(out);
  if (weighted) val.resize(out);
}

bool Coo::validate() const {
  if (nrows < 0 || ncols < 0) return false;
  if (row.size() != col.size()) return false;
  if (!val.empty() && val.size() != row.size()) return false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] < 0 || row[i] >= nrows) return false;
    if (col[i] < 0 || col[i] >= ncols) return false;
  }
  return true;
}

Coo with_unit_values(const Coo& a) {
  Coo out = a;
  out.val.assign(out.row.size(), 1.0f);
  return out;
}

Coo pattern_of(const Coo& a) {
  Coo out;
  out.nrows = a.nrows;
  out.ncols = a.ncols;
  out.row = a.row;
  out.col = a.col;
  return out;
}

}  // namespace bitgb
