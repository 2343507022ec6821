#include "core/b2sr.hpp"

#include "platform/simd.hpp"

#include <algorithm>
#include <cstdint>

namespace bitgb {

template <int Dim>
eidx_t B2srT<Dim>::nnz() const {
  // simd::rows_pop_accum's per-row counters are int32: a chunk of 2^20
  // tiles adds at most 2^20 * Dim <= 2^25 to each.
  constexpr vidx_t kChunk = vidx_t{1} << 20;
  const auto ntiles = static_cast<vidx_t>(bits.size() / Dim);
  eidx_t n = 0;
  for (vidx_t lo = 0; lo < ntiles;) {
    const vidx_t hi = ntiles - lo > kChunk ? lo + kChunk : ntiles;
    std::int32_t pop[Dim] = {};
    simd::rows_pop_accum<Dim>(bits.data(), lo, hi, pop);
    for (const std::int32_t c : pop) n += c;
    lo = hi;
  }
  return n;
}

template <int Dim>
bool B2srT<Dim>::validate() const {
  if (nrows < 0 || ncols < 0) return false;
  if (tile_rowptr.size() != static_cast<std::size_t>(n_tile_rows()) + 1) {
    return false;
  }
  if (!tile_rowptr.empty() && tile_rowptr.front() != 0) return false;
  if (!tile_rowptr.empty() &&
      tile_rowptr.back() != static_cast<vidx_t>(tile_colind.size())) {
    return false;
  }
  if (bits.size() != tile_colind.size() * static_cast<std::size_t>(Dim)) {
    return false;
  }

  const vidx_t ntc = n_tile_cols();
  for (vidx_t tr = 0; tr < n_tile_rows(); ++tr) {
    const auto lo = tile_rowptr[static_cast<std::size_t>(tr)];
    const auto hi = tile_rowptr[static_cast<std::size_t>(tr) + 1];
    // A later tile-row's decrease would fail too late: bound hi first.
    if (lo > hi || hi > tile_rowptr.back()) return false;
    const vidx_t valid_rows = std::min<vidx_t>(Dim, nrows - tr * Dim);
    for (vidx_t t = lo; t < hi; ++t) {
      const vidx_t tc = tile_colind[static_cast<std::size_t>(t)];
      if (tc < 0 || tc >= ntc) return false;
      if (t > lo && tile_colind[static_cast<std::size_t>(t) - 1] >= tc) {
        return false;
      }
      const auto words = tile(t);
      const vidx_t valid_cols = std::min<vidx_t>(Dim, ncols - tc * Dim);
      const auto col_mask = low_mask<word_t>(static_cast<int>(valid_cols));
      bool any = false;
      for (vidx_t r = 0; r < Dim; ++r) {
        const word_t w = words[static_cast<std::size_t>(r)];
        if (r >= valid_rows && w != 0) return false;  // bits below matrix
        if ((w & static_cast<word_t>(~col_mask)) != 0) {
          return false;  // bits right of matrix
        }
        any = any || (w != 0);
      }
      if (!any) return false;  // stored empty tile
    }
  }
  return true;
}

template struct B2srT<4>;
template struct B2srT<8>;
template struct B2srT<16>;
template struct B2srT<32>;

}  // namespace bitgb
