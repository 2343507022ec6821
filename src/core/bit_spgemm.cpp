#include "core/bit_spgemm.hpp"

#include "platform/parallel.hpp"
#include "platform/simd.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

namespace bitgb {

namespace {

// Per-thread tile accumulator (SPA over tile columns) with generation
// marking, mirroring the float SpGEMM baseline's accumulator.
template <int Dim>
struct TileSpa {
  using word_t = typename TileTraits<Dim>::word_t;
  std::vector<word_t> acc;      // n_tile_cols * Dim words
  std::vector<int> mark;        // generation per tile col
  std::vector<vidx_t> touched;  // tile cols hit this row
  int gen = 0;

  void ensure(vidx_t ntc) {
    if (mark.size() < static_cast<std::size_t>(ntc)) {
      mark.assign(static_cast<std::size_t>(ntc), -1);
      acc.assign(static_cast<std::size_t>(ntc) * Dim, word_t{0});
    }
  }
};

template <int Dim>
TileSpa<Dim>& tls_tile_spa() {
  thread_local TileSpa<Dim> spa;
  return spa;
}

/// True when the Dim accumulator words of one drained tile are all
/// zero (every product annihilated) — word-OR reduction, whole-tile
/// loads for the small dims.
template <int Dim>
[[gnu::always_inline]] inline bool tile_is_zero(
    const typename TileTraits<Dim>::word_t* words) {
  if constexpr (Dim == 8) {
    std::uint64_t v;
    std::memcpy(&v, words, sizeof v);
    return v == 0;
  } else if constexpr (Dim == 4) {
    std::uint32_t v;
    std::memcpy(&v, words, sizeof v);
    return v == 0;
  } else {
    typename TileTraits<Dim>::word_t any = 0;
    for (int r = 0; r < Dim; ++r) any |= words[r];
    return any == 0;
  }
}

}  // namespace

template <int Dim>
B2srT<Dim> bit_spgemm(const B2srT<Dim>& a, const B2srT<Dim>& b,
                      Exec exec) {
  using word_t = typename TileTraits<Dim>::word_t;
  assert(a.ncols == b.nrows);

  const vidx_t ntr = a.n_tile_rows();
  const vidx_t ntc = b.n_tile_cols();
  const vidx_t* a_rowptr = a.tile_rowptr.data();
  const vidx_t* a_colind = a.tile_colind.data();
  const word_t* a_tiles = a.bits.data();
  const vidx_t* b_rowptr = b.tile_rowptr.data();
  const vidx_t* b_colind = b.tile_colind.data();
  const word_t* b_tiles = b.bits.data();

  // Phase 1 (symbolic): structural upper bound of output tiles per
  // tile-row — marks only, no bit work.  Tiles that annihilate
  // numerically are compacted away after the fill.
  std::vector<vidx_t> upper(static_cast<std::size_t>(ntr), 0);
  parallel_for(exec.threads, vidx_t{0}, ntr, [&](vidx_t tr) {
    const vidx_t alo = a_rowptr[tr];
    const vidx_t ahi = a_rowptr[tr + 1];
    if (alo == ahi) return;  // empty A tile-row: no output
    auto& spa = tls_tile_spa<Dim>();
    spa.ensure(ntc);
    const int g = ++spa.gen;
    vidx_t count = 0;
    for (vidx_t ta = alo; ta < ahi; ++ta) {
      const vidx_t k = a_colind[ta];
      const vidx_t blo = b_rowptr[k];
      const vidx_t bhi = b_rowptr[k + 1];
      for (vidx_t tb = blo; tb < bhi; ++tb) {
        const auto j = static_cast<std::size_t>(b_colind[tb]);
        if (spa.mark[j] != g) {
          spa.mark[j] = g;
          ++count;
        }
      }
    }
    upper[static_cast<std::size_t>(tr)] = count;
  });

  std::vector<vidx_t> offs(static_cast<std::size_t>(ntr) + 1);
  parallel_exclusive_scan(exec.threads, upper.data(), upper.size(),
                          offs.data());
  const vidx_t ub_total = offs.back();

  B2srT<Dim> c;
  c.nrows = a.nrows;
  c.ncols = b.ncols;
  c.tile_colind.resize(static_cast<std::size_t>(ub_total));
  c.bits.assign(static_cast<std::size_t>(ub_total) * Dim, word_t{0});
  std::vector<vidx_t> actual(static_cast<std::size_t>(ntr), 0);

  // Phase 2 (numeric): Gustavson over tiles into the SPA, then drain
  // the touched tiles — sorted, annihilated tiles skipped — straight
  // into this tile-row's pre-sized slot range.
  parallel_for(exec.threads, vidx_t{0}, ntr, [&](vidx_t tr) {
    const vidx_t alo = a_rowptr[tr];
    const vidx_t ahi = a_rowptr[tr + 1];
    if (alo == ahi) return;
    auto& spa = tls_tile_spa<Dim>();
    spa.ensure(ntc);
    const int g = ++spa.gen;
    spa.touched.clear();
    for (vidx_t ta = alo; ta < ahi; ++ta) {
      const vidx_t k = a_colind[ta];
      const word_t* awords = a_tiles + static_cast<std::size_t>(ta) * Dim;
      const vidx_t blo = b_rowptr[k];
      const vidx_t bhi = b_rowptr[k + 1];
      for (vidx_t tb = blo; tb < bhi; ++tb) {
        const vidx_t j = b_colind[tb];
        const auto ji = static_cast<std::size_t>(j);
        if (spa.mark[ji] != g) {
          spa.mark[ji] = g;
          std::fill_n(spa.acc.begin() + static_cast<std::ptrdiff_t>(ji) * Dim,
                      Dim, word_t{0});
          spa.touched.push_back(j);
        }
        simd::spgemm_tile_accum<Dim>(
            awords, b_tiles + static_cast<std::size_t>(tb) * Dim,
            spa.acc.data() + ji * Dim);
      }
    }

    std::sort(spa.touched.begin(), spa.touched.end());
    const auto base = static_cast<std::size_t>(offs[static_cast<std::size_t>(tr)]);
    std::size_t out = 0;
    for (const vidx_t j : spa.touched) {
      const word_t* cacc = spa.acc.data() + static_cast<std::size_t>(j) * Dim;
      if (tile_is_zero<Dim>(cacc)) continue;  // all products annihilated
      c.tile_colind[base + out] = j;
      std::memcpy(c.bits.data() + (base + out) * Dim, cacc,
                  sizeof(word_t) * Dim);
      ++out;
    }
    actual[static_cast<std::size_t>(tr)] = static_cast<vidx_t>(out);
  });

  // Phase 3: final tile_rowptr and compaction of the rows whose
  // annihilated tiles left gaps.  An in-place left shift is unsafe to
  // parallelize (a later row's destination can overlap an earlier
  // row's still-unread source once slack accumulates), so compact into
  // fresh arrays: sources and destinations never alias, and each row
  // owns a disjoint destination range.
  c.tile_rowptr.resize(static_cast<std::size_t>(ntr) + 1);
  parallel_exclusive_scan(exec.threads, actual.data(), actual.size(),
                          c.tile_rowptr.data());
  const vidx_t total = c.tile_rowptr.back();
  if (total != ub_total) {
    decltype(c.tile_colind) packed_colind(static_cast<std::size_t>(total));
    decltype(c.bits) packed_bits(static_cast<std::size_t>(total) * Dim);
    parallel_for(exec.threads, vidx_t{0}, ntr, [&](vidx_t tr) {
      const auto src = static_cast<std::size_t>(offs[static_cast<std::size_t>(tr)]);
      const auto dst =
          static_cast<std::size_t>(c.tile_rowptr[static_cast<std::size_t>(tr)]);
      const auto n = static_cast<std::size_t>(actual[static_cast<std::size_t>(tr)]);
      if (n == 0) return;
      std::copy_n(c.tile_colind.begin() + static_cast<std::ptrdiff_t>(src), n,
                  packed_colind.begin() + static_cast<std::ptrdiff_t>(dst));
      std::copy_n(c.bits.begin() + static_cast<std::ptrdiff_t>(src * Dim),
                  n * Dim,
                  packed_bits.begin() + static_cast<std::ptrdiff_t>(dst * Dim));
    });
    c.tile_colind = std::move(packed_colind);
    c.bits = std::move(packed_bits);
  }
  return c;
}

template <int Dim>
B2srT<Dim> bit_spgemm_reference(const B2srT<Dim>& a, const B2srT<Dim>& b,
                                Exec exec) {
  using word_t = typename TileTraits<Dim>::word_t;
  assert(a.ncols == b.nrows);

  const vidx_t ntr = a.n_tile_rows();
  const vidx_t ntc = b.n_tile_cols();

  struct RowResult {
    std::vector<vidx_t> cols;
    std::vector<word_t> words;  // cols.size() * Dim
  };
  std::vector<RowResult> rows(static_cast<std::size_t>(ntr));

  parallel_for(exec.threads, vidx_t{0}, ntr, [&](vidx_t tr) {
    auto& spa = tls_tile_spa<Dim>();
    spa.ensure(ntc);
    const int g = ++spa.gen;
    spa.touched.clear();

    const auto alo = a.tile_rowptr[static_cast<std::size_t>(tr)];
    const auto ahi = a.tile_rowptr[static_cast<std::size_t>(tr) + 1];
    for (vidx_t ta = alo; ta < ahi; ++ta) {
      const vidx_t k = a.tile_colind[static_cast<std::size_t>(ta)];
      const auto awords = a.tile(ta);
      const auto blo = b.tile_rowptr[static_cast<std::size_t>(k)];
      const auto bhi = b.tile_rowptr[static_cast<std::size_t>(k) + 1];
      for (vidx_t tb = blo; tb < bhi; ++tb) {
        const vidx_t j = b.tile_colind[static_cast<std::size_t>(tb)];
        const auto bwords = b.tile(tb);
        const auto ji = static_cast<std::size_t>(j);
        if (spa.mark[ji] != g) {
          spa.mark[ji] = g;
          std::fill_n(spa.acc.begin() + static_cast<std::ptrdiff_t>(ji) * Dim,
                      Dim, word_t{0});
          spa.touched.push_back(j);
        }
        word_t* cacc = spa.acc.data() + ji * Dim;
        for (int r = 0; r < Dim; ++r) {
          const word_t arow = awords[static_cast<std::size_t>(r)];
          if (arow == 0) continue;
          word_t crow = cacc[r];
          for_each_set_bit(arow, [&](int t) {
            crow = static_cast<word_t>(crow |
                                       bwords[static_cast<std::size_t>(t)]);
          });
          cacc[r] = crow;
        }
      }
    }

    std::sort(spa.touched.begin(), spa.touched.end());
    auto& out = rows[static_cast<std::size_t>(tr)];
    for (const vidx_t j : spa.touched) {
      const word_t* cacc = spa.acc.data() + static_cast<std::size_t>(j) * Dim;
      bool any = false;
      for (int r = 0; r < Dim; ++r) any = any || (cacc[r] != 0);
      if (!any) continue;  // all products annihilated
      out.cols.push_back(j);
      out.words.insert(out.words.end(), cacc, cacc + Dim);
    }
  });

  B2srT<Dim> c;
  c.nrows = a.nrows;
  c.ncols = b.ncols;
  c.tile_rowptr.assign(static_cast<std::size_t>(ntr) + 1, 0);
  std::size_t total = 0;
  for (const auto& row : rows) total += row.cols.size();
  c.tile_colind.reserve(total);
  c.bits.reserve(total * Dim);
  for (vidx_t tr = 0; tr < ntr; ++tr) {
    const auto& row = rows[static_cast<std::size_t>(tr)];
    c.tile_colind.insert(c.tile_colind.end(), row.cols.begin(),
                         row.cols.end());
    c.bits.insert(c.bits.end(), row.words.begin(), row.words.end());
    c.tile_rowptr[static_cast<std::size_t>(tr) + 1] =
        static_cast<vidx_t>(c.tile_colind.size());
  }
  return c;
}

#define BITGB_INSTANTIATE_SPGEMM(Dim)                                     \
  template B2srT<Dim> bit_spgemm<Dim>(const B2srT<Dim>&,                  \
                                      const B2srT<Dim>&, Exec);  \
  template B2srT<Dim> bit_spgemm_reference<Dim>(const B2srT<Dim>&,        \
                                                const B2srT<Dim>&, Exec)

BITGB_INSTANTIATE_SPGEMM(4);
BITGB_INSTANTIATE_SPGEMM(8);
BITGB_INSTANTIATE_SPGEMM(16);
BITGB_INSTANTIATE_SPGEMM(32);

#undef BITGB_INSTANTIATE_SPGEMM

}  // namespace bitgb
