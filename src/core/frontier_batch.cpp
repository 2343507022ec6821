#include "core/frontier_batch.hpp"

#include "platform/parallel.hpp"
#include "platform/simd.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace bitgb {

void FrontierBatch::assign_sources(vidx_t nverts,
                                   const std::vector<vidx_t>& sources) {
  if (sources.empty() ||
      sources.size() > static_cast<std::size_t>(kMaxBatch)) {
    throw std::invalid_argument(
        "FrontierBatch::from_sources: batch size must be in [1, 64], got " +
        std::to_string(sources.size()));
  }
  for (const vidx_t s : sources) {
    if (s < 0 || s >= nverts) {
      throw std::invalid_argument("FrontierBatch::from_sources: source " +
                                  std::to_string(s) + " outside [0, " +
                                  std::to_string(nverts) + ")");
    }
  }
  resize(nverts, static_cast<int>(sources.size()));  // reuses capacity
  for (std::size_t b = 0; b < sources.size(); ++b) {
    set(sources[b], static_cast<int>(b));
  }
}

FrontierBatch FrontierBatch::from_sources(vidx_t nverts,
                                          const std::vector<vidx_t>& sources) {
  FrontierBatch out;
  out.assign_sources(nverts, sources);
  return out;
}

bool FrontierBatch::validate() const {
  if (batch < 1 || batch > kMaxBatch) return false;
  if (rows.size() != static_cast<std::size_t>(n)) return false;
  const word_t lanes = lane_mask();
  for (const word_t w : rows) {
    if ((w & ~lanes) != 0) return false;  // lane-tail bits must stay zero
  }
  return true;
}

template <int Dim>
void bmm_frontier_masked(const B2srT<Dim>& a, const FrontierBatch& f,
                         const FrontierBatch& mask, bool complement,
                         FrontierBatch& next, Exec exec) {
  using word_t = FrontierBatch::word_t;
  assert(f.n == a.ncols);
  assert(mask.n == a.nrows);
  assert(mask.batch == f.batch);
  next.resize(a.nrows, f.batch);
  // Live lanes: a lane whose frontier is empty adds nothing to acc, so
  // clamping the store by `live` is exact (and clears the tail lanes a
  // complemented mask turns on, since f has none).
  word_t live = 0;
  for (const word_t w : f.rows) live |= w;
  if (live == 0) return;
  const word_t flip = complement ? ~word_t{0} : word_t{0};
  // Value captures only (see parallel.hpp on closure escape).
  const typename TileTraits<Dim>::word_t* tiles = a.bits.data();
  const vidx_t* colind = a.tile_colind.data();
  const word_t* f_rows = f.rows.data();
  const std::size_t f_n = f.rows.size();
  const word_t* mask_rows = mask.rows.data();
  word_t* next_rows = next.rows.data();
  const vidx_t nrows = a.nrows;
  const vidx_t* rowptr = a.tile_rowptr.data();
  parallel_for(exec.threads, vidx_t{0}, a.n_tile_rows(), [=](vidx_t tr) {
    const vidx_t lo = rowptr[tr];
    const vidx_t hi = rowptr[tr + 1];
    if (lo == hi) return;
    const vidx_t r0 = tr * Dim;
    const auto rows = static_cast<int>(std::min<vidx_t>(nrows - r0, Dim));
    // §V mask first, lifted to the batch: a tile-row where no live lane
    // is open in any row is skipped whole (its rows keep resize()'s
    // zero); an open one is swept and the mask AND-ed at the store.
    word_t keep[Dim] = {};
    word_t open = 0;
    for (int r = 0; r < rows; ++r) {
      keep[r] = (mask_rows[static_cast<std::size_t>(r0 + r)] ^ flip) & live;
      open |= keep[r];
    }
    if (open == 0) return;
    // OR_{j in adj(i)} f.rows[j] for the tile-row's Dim rows, through
    // the engine's bit-to-lane OR accumulation (platform/simd.hpp).  Set
    // bits of a tail tile-column never exceed ncols (the B2SR zero-tail
    // invariant), so f.rows[base + j] is always in range.
    word_t acc[Dim] = {};
    simd::frontier_row_accum<Dim>(tiles, colind, lo, hi, f_rows, f_n, acc);
    for (int r = 0; r < rows; ++r) {
      next_rows[static_cast<std::size_t>(r0 + r)] = acc[r] & keep[r];
    }
  });
}

template <int Dim>
void bmm_frontier_push_masked(const B2srT<Dim>& a, const FrontierBatch& f,
                              const std::vector<vidx_t>& active,
                              const FrontierBatch& mask, FrontierBatch& next,
                              std::vector<vidx_t>& touched) {
  using word_t = typename TileTraits<Dim>::word_t;
  assert(f.n == a.nrows);
  assert(mask.n == a.ncols);
  assert(next.n == a.ncols && next.batch == f.batch);
  const vidx_t* rowptr = a.tile_rowptr.data();
  const vidx_t* colind = a.tile_colind.data();
  const word_t* tiles = a.bits.data();
  for (const vidx_t tr : active) {
    const vidx_t lo = rowptr[tr];
    const vidx_t hi = rowptr[tr + 1];
    if (lo == hi) continue;
    const vidx_t v0 = tr * Dim;
    const int rows_here = static_cast<int>(
        std::min<vidx_t>(a.nrows - v0, static_cast<vidx_t>(Dim)));
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t* words = tiles + static_cast<std::size_t>(t) * Dim;
      const auto base = static_cast<std::size_t>(colind[t]) *
                        static_cast<std::size_t>(Dim);
      for (int r = 0; r < rows_here; ++r) {
        const FrontierBatch::word_t fw =
            f.rows[static_cast<std::size_t>(v0) + static_cast<std::size_t>(r)];
        if (fw == 0) continue;
        const auto w = words[r];
        if (w == 0) continue;
        for_each_set_bit(w, [&](int j) {
          const std::size_t c = base + static_cast<std::size_t>(j);
          // fw carries no lane-tail bits, so neither does the store.
          const FrontierBatch::word_t nw = fw & ~mask.rows[c];
          if (nw == 0) return;
          const FrontierBatch::word_t prev = next.rows[c];
          const FrontierBatch::word_t merged = prev | nw;
          if (merged != prev) {
            if (prev == 0) touched.push_back(static_cast<vidx_t>(c));
            next.rows[c] = merged;
          }
        });
      }
    }
  }
}

#define BITGB_INSTANTIATE_BMM_FRONTIER(Dim)                                \
  template void bmm_frontier_masked<Dim>(const B2srT<Dim>&,                \
                                         const FrontierBatch&,             \
                                         const FrontierBatch&, bool,       \
                                         FrontierBatch&, Exec);   \
  template void bmm_frontier_push_masked<Dim>(                             \
      const B2srT<Dim>&, const FrontierBatch&, const std::vector<vidx_t>&, \
      const FrontierBatch&, FrontierBatch&, std::vector<vidx_t>&)

BITGB_INSTANTIATE_BMM_FRONTIER(4);
BITGB_INSTANTIATE_BMM_FRONTIER(8);
BITGB_INSTANTIATE_BMM_FRONTIER(16);
BITGB_INSTANTIATE_BMM_FRONTIER(32);

#undef BITGB_INSTANTIATE_BMM_FRONTIER

}  // namespace bitgb
