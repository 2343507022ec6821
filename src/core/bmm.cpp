#include "core/bmm.hpp"

#include "platform/parallel.hpp"
#include "platform/simd.hpp"

#include <atomic>
#include <cassert>

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
  std::atomic<std::int64_t> total{0};
  std::atomic<std::int64_t>* totalp = &total;
  parallel_for(exec.threads, vidx_t{0}, mask.n_tile_rows(), [=](vidx_t tr) {
    // Empty-tile-row early-outs: no mask tiles or no A tiles in this
    // tile-row means no (i, j) pair can contribute.
    const vidx_t mlo = m_rowptr[tr];
    const vidx_t mhi = m_rowptr[tr + 1];
    if (mlo == mhi) return;
    const vidx_t alo = a_rowptr[tr];
    const vidx_t ahi = a_rowptr[tr + 1];
    if (alo == ahi) return;
    std::int64_t sum = 0;
    for (vidx_t tm = mlo; tm < mhi; ++tm) {
      const vidx_t j = m_colind[tm];
      const vidx_t blo = b_rowptr[j];
      const vidx_t bhi = b_rowptr[j + 1];
      if (blo == bhi) continue;  // B's tile-row j is empty
      const word_t* mwords = m_tiles + static_cast<std::size_t>(tm) * Dim;
      // Merge-join A's tile-row tr with B's tile-row j on tile column.
      vidx_t pa = alo;
      vidx_t pb = blo;
      while (pa < ahi && pb < bhi) {
        const vidx_t ca = a_colind[pa];
        const vidx_t cb = b_colind[pb];
        if (ca < cb) {
          ++pa;
        } else if (cb < ca) {
          ++pb;
        } else {
          const word_t* awords = a_tiles + static_cast<std::size_t>(pa) * Dim;
          const word_t* bwords = b_tiles + static_cast<std::size_t>(pb) * Dim;
          // For each mask bit (r, c): (A*B^T) block entry (r, c) gets
          // popc(Arow_r & Brow_c) from this aligned tile pair — the
          // Listing-2 bit-dot (r0 & shfl(r1, k)), mask applied before
          // the atomicAdd as in bmm_bin_bin_sum_masked (paper §V TC).
          sum += simd::masked_pair_dot<Dim>(awords, bwords, mwords);
          ++pa;
          ++pb;
        }
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
