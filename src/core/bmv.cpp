#include "core/bmv.hpp"

#include "platform/simd.hpp"

namespace bitgb {

namespace detail {

/// The tile-row loop both Boolean kernels share: take each tile-row's
/// store mask (`mask`, complemented if asked, clipped to Dim bits; null
/// = keep all), skip the row when that mask is zero, else OR the row
/// through simd::bbb_row_or and store its word AND-ed with the mask.
/// Empty and closed tile-rows store the zero resize() wrote.
template <int Dim>
void boolean_tile_rows(const B2srT<Dim>& a, const PackedVecT<Dim>& x,
                       const PackedVecT<Dim>* mask, bool complement,
                       PackedVecT<Dim>& y, Exec exec) {
  using word_t = typename TileTraits<Dim>::word_t;
  assert(x.n == a.ncols);
  y.resize(a.nrows);
  const vidx_t* rowptr = a.tile_rowptr.data();
  const vidx_t* colind = a.tile_colind.data();
  const word_t* tiles = a.bits.data();
  const word_t* xw = x.words.data();
  const word_t* mw = mask != nullptr ? mask->words.data() : nullptr;
  word_t* yw = y.words.data();
  // A B2SR-4 word is a uint8_t: a complemented mask sets its four spare
  // bits, so the closed-row test must only see the tile's Dim rows.
  constexpr word_t row_bits = low_mask<word_t>(Dim);
  // Value captures only: a by-reference capture would tie the lambda to
  // the caller's stack and force the serial path's loads through memory
  // (see parallel.hpp on closure escape).
  parallel_for(exec.threads, vidx_t{0}, a.n_tile_rows(), [=](vidx_t tr) {
    const vidx_t lo = rowptr[tr];
    const vidx_t hi = rowptr[tr + 1];
    if (lo == hi) return;
    // Paper §V, mask first: a tile-row's mask is uniform for the warp
    // that owns it, so a closed tile-row is skipped whole; inside an
    // open row there is no per-row early exit (it would diverge the
    // warp) and the mask is AND-ed right before the output store.
    word_t keep = row_bits;
    if (mw != nullptr) {
      keep = mw[static_cast<std::size_t>(tr)];
      if (complement) keep = static_cast<word_t>(~keep);
      keep = static_cast<word_t>(keep & row_bits);
      if (keep == 0) return;
    }
    const word_t out = simd::bbb_row_or<Dim>(tiles, colind, xw, lo, hi);
    yw[static_cast<std::size_t>(tr)] = static_cast<word_t>(out & keep);
  });
  // Clamp tail bits beyond nrows (complemented masks set them).
  if (a.nrows % Dim != 0 && !y.words.empty()) {
    y.words.back() =
        static_cast<word_t>(y.words.back() & low_mask<word_t>(a.nrows % Dim));
  }
}

}  // namespace detail

template <int Dim>
void bmv_bin_bin_bin(const B2srT<Dim>& a, const PackedVecT<Dim>& x,
                     PackedVecT<Dim>& y, Exec exec) {
  detail::boolean_tile_rows<Dim>(a, x, nullptr, false, y, exec);
}

template <int Dim>
void bmv_bin_bin_bin_masked(const B2srT<Dim>& a, const PackedVecT<Dim>& x,
                            const PackedVecT<Dim>& mask, bool complement,
                            PackedVecT<Dim>& y, Exec exec) {
  assert(mask.n == a.nrows);
  detail::boolean_tile_rows<Dim>(a, x, &mask, complement, y, exec);
}

template <int Dim>
void bmv_bin_bin_bin_push_masked(const B2srT<Dim>& a,
                                 const PackedVecT<Dim>& x,
                                 const std::vector<vidx_t>& active,
                                 const PackedVecT<Dim>& mask, bool complement,
                                 PackedVecT<Dim>& y,
                                 std::vector<vidx_t>& touched) {
  using word_t = typename TileTraits<Dim>::word_t;
  assert(x.n == a.nrows);
  assert(mask.n == a.ncols);
  assert(static_cast<vidx_t>(y.words.size()) == (a.ncols + Dim - 1) / Dim);
  // Serial over the active tile-rows: the work is frontier-proportional
  // by construction (the GPU analog maps each active tile-row to one
  // warp; the host analog of a sparse frontier doesn't amortize a
  // parallel region).
  const word_t tail_mask =
      (a.ncols % Dim != 0) ? low_mask<word_t>(a.ncols % Dim)
                           : static_cast<word_t>(~word_t{0});
  const auto last_word = y.words.size() - 1;
  const vidx_t* rowptr = a.tile_rowptr.data();
  const vidx_t* colind = a.tile_colind.data();
  const word_t* tiles = a.bits.data();
  for (const vidx_t tr : active) {
    const word_t fw = x.words[static_cast<std::size_t>(tr)];
    if (fw == 0) continue;
    const vidx_t lo = rowptr[tr];
    const vidx_t hi = rowptr[tr + 1];
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t* words = tiles + static_cast<std::size_t>(t) * Dim;
      word_t out = 0;
      for_each_set_bit(fw, [&](int r) {
        out = static_cast<word_t>(out | words[r]);
      });
      if (out == 0) continue;
      const auto j = static_cast<std::size_t>(colind[t]);
      word_t mword = mask.words[j];
      if (complement) mword = static_cast<word_t>(~mword);
      if (j == last_word) mword = static_cast<word_t>(mword & tail_mask);
      out = static_cast<word_t>(out & mword);
      if (out == 0) continue;
      const word_t prev = y.words[j];
      y.words[j] = static_cast<word_t>(prev | out);
      if (prev == 0 && y.words[j] != 0) {
        touched.push_back(static_cast<vidx_t>(j));
      }
    }
  }
}

namespace detail {

/// The tile-row loop both counting kernels share: popcount-accumulate
/// every non-empty tile-row through simd::bbf_row_accum, then store
/// row r unless `mask` (null = keep all) drops it.  Empty tile-rows
/// are not stored.
template <int Dim>
void counting_tile_rows(const B2srT<Dim>& a, const PackedVecT<Dim>& x,
                        const PackedVecT<Dim>* mask, bool complement,
                        value_t* y, Exec exec) {
  using word_t = typename TileTraits<Dim>::word_t;
  assert(x.n == a.ncols);
  const vidx_t* rowptr = a.tile_rowptr.data();
  const vidx_t* colind = a.tile_colind.data();
  const word_t* tiles = a.bits.data();
  const word_t* xw = x.words.data();
  const word_t* mw = mask != nullptr ? mask->words.data() : nullptr;
  const vidx_t nrows = a.nrows;
  parallel_for(exec.threads, vidx_t{0}, a.n_tile_rows(), [=](vidx_t tr) {
    const vidx_t lo = rowptr[tr];
    const vidx_t hi = rowptr[tr + 1];
    if (lo == hi) return;
    // The paper's core identity, per bit-row: c_i = __popc(A_i & b).
    std::int32_t acc[Dim] = {};
    simd::bbf_row_accum<Dim>(tiles, colind, xw, lo, hi, acc);
    auto keep = static_cast<word_t>(~word_t{0});
    if (mw != nullptr) {
      keep = mw[static_cast<std::size_t>(tr)];
      if (complement) keep = static_cast<word_t>(~keep);
    }
    const vidx_t r0 = tr * Dim;
    const vidx_t rend = std::min<vidx_t>(nrows, r0 + Dim);
    for (vidx_t r = r0; r < rend; ++r) {
      if (get_bit(keep, static_cast<int>(r - r0)) != 0) {
        y[static_cast<std::size_t>(r)] = static_cast<value_t>(acc[r - r0]);
      }
    }
  });
}

}  // namespace detail

template <int Dim>
void bmv_bin_bin_full(const B2srT<Dim>& a, const PackedVecT<Dim>& x,
                      std::vector<value_t>& y, Exec exec) {
  y.assign(static_cast<std::size_t>(a.nrows), 0.0f);
  detail::counting_tile_rows<Dim>(a, x, nullptr, false, y.data(), exec);
}

template <int Dim>
void bmv_bin_bin_full_masked(const B2srT<Dim>& a, const PackedVecT<Dim>& x,
                             const PackedVecT<Dim>& mask, bool complement,
                             std::vector<value_t>& y, Exec exec) {
  assert(mask.n == a.nrows);
  assert(static_cast<vidx_t>(y.size()) == a.nrows);
  detail::counting_tile_rows<Dim>(a, x, &mask, complement, y.data(), exec);
}

namespace detail {

template <int Dim>
void semiring_tile_rows(const B2srT<Dim>& a, const value_t* x,
                        LaneReduce reduce, value_t offset,
                        const PackedVecT<Dim>* mask, bool complement,
                        value_t* y, Exec exec) {
  using word_t = typename TileTraits<Dim>::word_t;
  const vidx_t* rowptr = a.tile_rowptr.data();
  const vidx_t* colind = a.tile_colind.data();
  const word_t* tiles = a.bits.data();
  const word_t* mw = mask != nullptr ? mask->words.data() : nullptr;
  const vidx_t nrows = a.nrows;
  const vidx_t ncols = a.ncols;
  // Value captures only (see parallel.hpp on closure escape).
  parallel_for(exec.threads, vidx_t{0}, a.n_tile_rows(), [=](vidx_t tr) {
    const vidx_t lo = rowptr[tr];
    const vidx_t hi = rowptr[tr + 1];
    if (lo == hi) return;
    value_t acc[Dim];
    simd::semiring_row_fold<Dim>(tiles, colind, lo, hi, x, ncols, reduce,
                                 offset, acc);
    // Paper §V: the mask is applied right before the output store.
    auto keep = static_cast<word_t>(~word_t{0});
    if (mw != nullptr) {
      keep = mw[static_cast<std::size_t>(tr)];
      if (complement) keep = static_cast<word_t>(~keep);
    }
    const vidx_t r0 = tr * Dim;
    const vidx_t rend = std::min<vidx_t>(nrows, r0 + Dim);
    for (vidx_t r = r0; r < rend; ++r) {
      if (get_bit(keep, static_cast<int>(r - r0)) != 0) {
        y[static_cast<std::size_t>(r)] = acc[r - r0];
      }
    }
  });
}

}  // namespace detail

#define BITGB_INSTANTIATE_BMV(Dim)                                          \
  template void bmv_bin_bin_bin<Dim>(const B2srT<Dim>&,                     \
                                     const PackedVecT<Dim>&,                \
                                     PackedVecT<Dim>&, Exec);      \
  template void bmv_bin_bin_bin_masked<Dim>(                                \
      const B2srT<Dim>&, const PackedVecT<Dim>&, const PackedVecT<Dim>&,    \
      bool, PackedVecT<Dim>&, Exec);                               \
  template void bmv_bin_bin_bin_push_masked<Dim>(                           \
      const B2srT<Dim>&, const PackedVecT<Dim>&, const std::vector<vidx_t>&,\
      const PackedVecT<Dim>&, bool, PackedVecT<Dim>&,                       \
      std::vector<vidx_t>&);                                                \
  template void bmv_bin_bin_full<Dim>(const B2srT<Dim>&,                    \
                                      const PackedVecT<Dim>&,               \
                                      std::vector<value_t>&, Exec);\
  template void bmv_bin_bin_full_masked<Dim>(                               \
      const B2srT<Dim>&, const PackedVecT<Dim>&, const PackedVecT<Dim>&,    \
      bool, std::vector<value_t>&, Exec);                                   \
  template void detail::semiring_tile_rows<Dim>(                            \
      const B2srT<Dim>&, const value_t*, LaneReduce, value_t,               \
      const PackedVecT<Dim>*, bool, value_t*, Exec)

BITGB_INSTANTIATE_BMV(4);
BITGB_INSTANTIATE_BMV(8);
BITGB_INSTANTIATE_BMV(16);
BITGB_INSTANTIATE_BMV(32);

#undef BITGB_INSTANTIATE_BMV

}  // namespace bitgb
