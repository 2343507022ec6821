#include "core/bmm.hpp"

#include "platform/parallel.hpp"
#include "platform/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <vector>

namespace bitgb {

template <int Dim>
std::int64_t bmm_bin_bin_sum(const B2srT<Dim>& a, const B2srT<Dim>& b,
                             Exec exec) {
  using word_t = typename TileTraits<Dim>::word_t;
  assert(a.ncols == b.nrows);
  const vidx_t* a_rowptr = a.tile_rowptr.data();
  const vidx_t* a_colind = a.tile_colind.data();
  const word_t* a_tiles = a.bits.data();
  const vidx_t* b_rowptr = b.tile_rowptr.data();
  const word_t* b_tiles = b.bits.data();
  // One relaxed fetch_add per tile-row instead of a partial vector
  // allocated per call: integer addition commutes, so the reduction
  // order is irrelevant and the result stays deterministic.
  std::atomic<std::int64_t> total{0};
  std::atomic<std::int64_t>* totalp = &total;
  // Gustavson over tiles: for A tile (i,k), walk B's tile-row k.  The
  // contribution of the pair to the total is
  //   sum_r sum_{t set in Arow_r} popc(Brow_t)
  // == the register reduction of Listing 2 folded into the sum.
  // Value captures only (see parallel.hpp on closure escape).
  parallel_for(exec.threads, vidx_t{0}, a.n_tile_rows(), [=](vidx_t tr) {
    const vidx_t alo = a_rowptr[tr];
    const vidx_t ahi = a_rowptr[tr + 1];
    if (alo == ahi) return;
    std::int64_t sum = 0;
    for (vidx_t ta = alo; ta < ahi; ++ta) {
      const vidx_t k = a_colind[ta];
      const word_t* awords = a_tiles + static_cast<std::size_t>(ta) * Dim;
      // popcount of each B row word in B's tile-row k, summed per bit t:
      // brow_pop[t] = sum over B tiles in row k of popc(row t).
      const vidx_t blo = b_rowptr[k];
      const vidx_t bhi = b_rowptr[k + 1];
      if (blo == bhi) continue;
      std::int32_t brow_pop[Dim] = {};
      simd::rows_pop_accum<Dim>(b_tiles, blo, bhi, brow_pop);
      for (int r = 0; r < Dim; ++r) {
        const word_t w = awords[r];
        for_each_set_bit(w, [&](int t) { sum += brow_pop[t]; });
      }
    }
    totalp->fetch_add(sum, std::memory_order_relaxed);
  });
  return total.load(std::memory_order_relaxed);
}

template <int Dim>
std::int64_t bmm_bin_bin_sum_masked(const B2srT<Dim>& a, const B2srT<Dim>& b,
                                    const B2srT<Dim>& mask,
                                    Exec exec) {
  using word_t = typename TileTraits<Dim>::word_t;
  assert(a.ncols == b.ncols);
  assert(mask.nrows == a.nrows);
  assert(mask.ncols == b.nrows);
  const vidx_t* a_rowptr = a.tile_rowptr.data();
  const vidx_t* a_colind = a.tile_colind.data();
  const word_t* a_tiles = a.bits.data();
  const vidx_t* b_rowptr = b.tile_rowptr.data();
  const vidx_t* b_colind = b.tile_colind.data();
  const word_t* b_tiles = b.bits.data();
  const vidx_t* m_rowptr = mask.tile_rowptr.data();
  const vidx_t* m_colind = mask.tile_colind.data();
  const word_t* m_tiles = mask.bits.data();
  const auto row_words = static_cast<std::size_t>(a.n_tile_cols()) * Dim;
  constexpr std::size_t kTileBytes = sizeof(word_t) * Dim;

  // Contiguous tile-row ranges, one per worker, holding about the same
  // number of mask tiles: range i starts at the first tile-row whose
  // mask tiles begin at or past i/n of the total.
  const vidx_t ntr = mask.n_tile_rows();
  if (ntr == 0) return 0;
  const int nranges = resolve_width(exec.threads);
  std::vector<vidx_t> first(static_cast<std::size_t>(nranges) + 1, ntr);
  for (int i = 0; i < nranges; ++i) {
    const auto target = static_cast<vidx_t>(
        static_cast<std::int64_t>(m_rowptr[ntr]) * i / nranges);
    first[static_cast<std::size_t>(i)] = static_cast<vidx_t>(
        std::lower_bound(m_rowptr, m_rowptr + ntr, target) - m_rowptr);
  }
  const vidx_t* firstp = first.data();

  std::atomic<std::int64_t> total{0};
  std::atomic<std::int64_t>* totalp = &total;
  // Value captures only (see parallel.hpp on closure escape).
  parallel_for_static(nranges, 0, nranges, [=](int range) {
    const vidx_t trlo = firstp[range];
    const vidx_t trhi = firstp[range + 1];
    if (trlo == trhi) return;
    // A's tile-row as a dense row of tiles, all-zero between rows.
    typename B2srT<Dim>::bits_vector dense(row_words);
    word_t* drow = dense.data();
    std::int64_t sum = 0;
    for (vidx_t tr = trlo; tr < trhi; ++tr) {
      const vidx_t mlo = m_rowptr[tr];
      const vidx_t mhi = m_rowptr[tr + 1];
      const vidx_t alo = a_rowptr[tr];
      const vidx_t ahi = a_rowptr[tr + 1];
      if (mlo == mhi || alo == ahi) continue;
      for (vidx_t ta = alo; ta < ahi; ++ta) {
        std::memcpy(drow + static_cast<std::size_t>(a_colind[ta]) * Dim,
                    a_tiles + static_cast<std::size_t>(ta) * Dim, kTileBytes);
      }
      // Mask tile (tr, j) against B's whole tile-row j: for each mask
      // bit (r, c), (A*B^T) block entry (r, c) gets popc(Arow_r &
      // Brow_c) from every B tile whose column A also holds — the
      // Listing-2 bit-dot (r0 & shfl(r1, k)), mask applied before the
      // atomicAdd as in bmm_bin_bin_sum_masked (paper §V TC).
      for (vidx_t tm = mlo; tm < mhi; ++tm) {
        const vidx_t j = m_colind[tm];
        const vidx_t blo = b_rowptr[j];
        const vidx_t bhi = b_rowptr[j + 1];
        if (blo == bhi) continue;  // B's tile-row j is empty
        sum += simd::masked_row_dot<Dim>(
            drow, b_colind, b_tiles, blo, bhi,
            m_tiles + static_cast<std::size_t>(tm) * Dim);
      }
      for (vidx_t ta = alo; ta < ahi; ++ta) {
        std::memset(drow + static_cast<std::size_t>(a_colind[ta]) * Dim, 0,
                    kTileBytes);
      }
    }
    totalp->fetch_add(sum, std::memory_order_relaxed);
  });
  return total.load(std::memory_order_relaxed);
}

#define BITGB_INSTANTIATE_BMM(Dim)                                      \
  template std::int64_t bmm_bin_bin_sum<Dim>(                           \
      const B2srT<Dim>&, const B2srT<Dim>&, Exec);             \
  template std::int64_t bmm_bin_bin_sum_masked<Dim>(                    \
      const B2srT<Dim>&, const B2srT<Dim>&, const B2srT<Dim>&,          \
      Exec)

BITGB_INSTANTIATE_BMM(4);
BITGB_INSTANTIATE_BMM(8);
BITGB_INSTANTIATE_BMM(16);
BITGB_INSTANTIATE_BMM(32);

#undef BITGB_INSTANTIATE_BMM

}  // namespace bitgb
