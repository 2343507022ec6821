#include "core/pack.hpp"

#include "platform/parallel.hpp"
#include "platform/simd.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace bitgb {

namespace {

// ---------------------------------------------------------------------
// Tile-column discovery.  CSR's sorted-column invariant means the
// nonzeros of one row that fall in one tile are consecutive, so a
// single linear pass per row folds them into "runs" — (tile column,
// packed word) pairs, one per (row, tile), already sorted by tile
// column.  The per-tile-row union is then a k-way cursor merge over
// the <= Dim run streams: no per-nonzero sort+unique (the old walk),
// no binary search, and the fill pass just stores each run's word.
// The counting pass (the csr2bsrNnz analog, shared with
// count_nonempty_tiles) and the fill pass drive the same merge through
// a policy, so the two can never drift.
//
// Policy contract, called by merge_tile_row_runs:
//   * policy.tile(tc)      — once per distinct tile column, ascending;
//   * policy.row_word(j, w) — once per member row j of that tile, with
//                             the run's packed word.
// ---------------------------------------------------------------------

/// Per-row runs, stored at the row's CSR offset (a row has at most
/// row-nnz runs, so rowptr[] bounds the slices).  Words are widened to
/// uint32 so one buffer serves every tile dim.
struct RowRuns {
  std::vector<vidx_t> tc;
  std::vector<std::uint32_t> word;
  std::vector<vidx_t> count;
};

template <int Dim>
RowRuns build_row_runs(const Csr& a, bool with_words, int threads) {
  using word_t = typename TileTraits<Dim>::word_t;
  RowRuns runs;
  runs.tc.resize(a.colind.size());
  // Counting callers (count_nonempty_tiles) only need the run index;
  // skipping the word buffer and the bit scatter keeps the pure count
  // at one transient array and no packing work.
  if (with_words) runs.word.resize(a.colind.size());
  runs.count.assign(static_cast<std::size_t>(a.nrows), 0);
  const vidx_t* cols = a.colind.data();
  const vidx_t* rowptr = a.rowptr.data();
  vidx_t* run_tc = runs.tc.data();
  std::uint32_t* run_word = runs.word.data();
  vidx_t* run_count = runs.count.data();
  parallel_for_static(threads, vidx_t{0}, a.nrows, [=](vidx_t r) {
    const auto lo = static_cast<std::size_t>(
        rowptr[static_cast<std::size_t>(r)]);
    const auto hi = static_cast<std::size_t>(
        rowptr[static_cast<std::size_t>(r) + 1]);
    std::size_t n = 0;
    std::size_t i = lo;
    while (i < hi) {
      const vidx_t tc = cols[i] / Dim;
      const vidx_t base = tc * Dim;
      if (!with_words) {
        const vidx_t limit = base + Dim;
        while (i < hi && cols[i] < limit) ++i;
      } else {
        word_t w = 0;
        i = simd::pack_scatter_run<Dim>(cols, i, hi, base, w);
        run_word[lo + n] = w;
      }
      run_tc[lo + n] = tc;
      ++n;
    }
    run_count[static_cast<std::size_t>(r)] = static_cast<vidx_t>(n);
  });
  return runs;
}

template <int Dim, typename Policy>
void merge_tile_row_runs(const Csr& a, const RowRuns& runs, vidx_t tr,
                         Policy& policy) {
  constexpr vidx_t kDone = std::numeric_limits<vidx_t>::max();
  const vidx_t r_lo = tr * Dim;
  const vidx_t r_hi = std::min<vidx_t>(a.nrows, r_lo + Dim);
  const int k = static_cast<int>(r_hi - r_lo);
  // A word-free run index (counting callers) feeds the policy zeros.
  const std::uint32_t* words = runs.word.empty() ? nullptr : runs.word.data();
  vidx_t rc[Dim];    // run cursor per row
  vidx_t re[Dim];    // run end per row
  vidx_t tcur[Dim];  // current tile column per row (kDone = exhausted)
  for (int j = 0; j < k; ++j) {
    rc[j] = a.rowptr[static_cast<std::size_t>(r_lo + j)];
    re[j] = rc[j] + runs.count[static_cast<std::size_t>(r_lo + j)];
    tcur[j] = rc[j] < re[j] ? runs.tc[static_cast<std::size_t>(rc[j])] : kDone;
  }
  for (;;) {
    vidx_t tc = kDone;
    for (int j = 0; j < k; ++j) {
      if (tcur[j] < tc) tc = tcur[j];
    }
    if (tc == kDone) return;
    policy.tile(tc);
    for (int j = 0; j < k; ++j) {
      if (tcur[j] != tc) continue;
      policy.row_word(j, words ? words[static_cast<std::size_t>(rc[j])] : 0);
      ++rc[j];
      tcur[j] =
          rc[j] < re[j] ? runs.tc[static_cast<std::size_t>(rc[j])] : kDone;
    }
  }
}

/// Counting policy: distinct tile columns only.
struct CountTilesPolicy {
  vidx_t count = 0;
  void tile(vidx_t) { ++count; }
  void row_word(int, std::uint32_t) {}
};

/// Fill policy: write the tile column and store each member row's run
/// word — the fused colind + bit-packing pass.
template <int Dim>
struct FillTilesPolicy {
  using word_t = typename TileTraits<Dim>::word_t;
  vidx_t* out_colind;  ///< this tile-row's tile_colind slice
  word_t* out_words;   ///< this tile-row's bits slice
  std::ptrdiff_t slot = -1;

  void tile(vidx_t tc) { out_colind[++slot] = tc; }
  void row_word(int j, std::uint32_t w) {
    out_words[static_cast<std::size_t>(slot) * Dim +
              static_cast<std::size_t>(j)] = static_cast<word_t>(w);
  }
};

// --- Pre-rewrite reference path (double sort+unique walk), kept as the
// differential oracle for test_pack_pipeline and the conversion
// ablation bench. ---

template <int Dim>
void collect_tile_cols_reference(const Csr& a, vidx_t tr,
                                 std::vector<vidx_t>& out) {
  out.clear();
  const vidx_t r_lo = tr * Dim;
  const vidx_t r_hi = std::min<vidx_t>(a.nrows, r_lo + Dim);
  for (vidx_t r = r_lo; r < r_hi; ++r) {
    for (const vidx_t c : a.row_cols(r)) {
      out.push_back(c / Dim);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

vidx_t count_nonempty_tiles(const Csr& a, int dim, Exec exec) {
  return dispatch_tile_dim(dim, [&]<int Dim>() {
    const RowRuns runs =
        build_row_runs<Dim>(a, /*with_words=*/false, exec.threads);
    const vidx_t ntr = (a.nrows + Dim - 1) / Dim;
    std::vector<vidx_t> per_row(static_cast<std::size_t>(ntr), 0);
    parallel_for_static(exec.threads, vidx_t{0}, ntr, [&](vidx_t tr) {
      CountTilesPolicy count;
      merge_tile_row_runs<Dim>(a, runs, tr, count);
      per_row[static_cast<std::size_t>(tr)] = count.count;
    });
    vidx_t total = 0;
    for (const vidx_t c : per_row) total += c;
    return total;
  });
}

template <int Dim>
B2srT<Dim> pack_from_csr(const Csr& a, Exec exec) {
  using word_t = typename TileTraits<Dim>::word_t;
  B2srT<Dim> b;
  b.nrows = a.nrows;
  b.ncols = a.ncols;
  const vidx_t ntr = b.n_tile_rows();

  // Pass 0: fold every row's nonzeros into (tile column, word) runs —
  // the only O(nnz) work in the pipeline; the bit scatter runs through
  // the SIMD engine here.
  const RowRuns runs =
      build_row_runs<Dim>(a, /*with_words=*/true, exec.threads);

  // Pass 1: distinct tile columns per tile-row (csr2bsrNnz analog),
  // then tile_rowptr by parallel prefix sum.
  std::vector<vidx_t> counts(static_cast<std::size_t>(ntr), 0);
  parallel_for_static(exec.threads, vidx_t{0}, ntr, [&](vidx_t tr) {
    CountTilesPolicy count;
    merge_tile_row_runs<Dim>(a, runs, tr, count);
    counts[static_cast<std::size_t>(tr)] = count.count;
  });
  b.tile_rowptr.resize(static_cast<std::size_t>(ntr) + 1);
  parallel_exclusive_scan(exec.threads, counts.data(), counts.size(),
                          b.tile_rowptr.data());
  const vidx_t ntiles = b.tile_rowptr.back();
  b.tile_colind.resize(static_cast<std::size_t>(ntiles));
  b.bits.assign(static_cast<std::size_t>(ntiles) * Dim, word_t{0});

  // Pass 2: the same merge per tile-row writes the tile columns and
  // stores each run's word (no binary search — a (row, tile) pair is
  // exactly one run).
  parallel_for_static(exec.threads, vidx_t{0}, ntr, [&](vidx_t tr) {
    const vidx_t base = b.tile_rowptr[static_cast<std::size_t>(tr)];
    FillTilesPolicy<Dim> fill{
        b.tile_colind.data() + static_cast<std::size_t>(base),
        b.bits.data() + static_cast<std::size_t>(base) * Dim, -1};
    merge_tile_row_runs<Dim>(a, runs, tr, fill);
  });
  return b;
}

template <int Dim>
B2srT<Dim> pack_from_csr_reference(const Csr& a) {
  using word_t = typename TileTraits<Dim>::word_t;
  B2srT<Dim> b;
  b.nrows = a.nrows;
  b.ncols = a.ncols;
  const vidx_t ntr = b.n_tile_rows();
  b.tile_rowptr.assign(static_cast<std::size_t>(ntr) + 1, 0);

  // Pass 1: non-empty tile columns per tile-row via sort+unique.
  std::vector<std::vector<vidx_t>> row_tiles(static_cast<std::size_t>(ntr));
  parallel_for(vidx_t{0}, ntr, [&](vidx_t tr) {
    collect_tile_cols_reference<Dim>(a, tr,
                                     row_tiles[static_cast<std::size_t>(tr)]);
  });
  for (vidx_t tr = 0; tr < ntr; ++tr) {
    b.tile_rowptr[static_cast<std::size_t>(tr) + 1] =
        b.tile_rowptr[static_cast<std::size_t>(tr)] +
        static_cast<vidx_t>(row_tiles[static_cast<std::size_t>(tr)].size());
  }
  const vidx_t ntiles = b.tile_rowptr.back();
  b.tile_colind.resize(static_cast<std::size_t>(ntiles));
  b.bits.assign(static_cast<std::size_t>(ntiles) * Dim, word_t{0});

  // Pass 2: binary-search scatter of each nonzero into its tile word.
  parallel_for(vidx_t{0}, ntr, [&](vidx_t tr) {
    const auto& cols = row_tiles[static_cast<std::size_t>(tr)];
    const vidx_t base = b.tile_rowptr[static_cast<std::size_t>(tr)];
    for (std::size_t i = 0; i < cols.size(); ++i) {
      b.tile_colind[static_cast<std::size_t>(base) + i] = cols[i];
    }
    const vidx_t r_lo = tr * Dim;
    const vidx_t r_hi = std::min<vidx_t>(a.nrows, r_lo + Dim);
    for (vidx_t r = r_lo; r < r_hi; ++r) {
      for (const vidx_t c : a.row_cols(r)) {
        const vidx_t tc = c / Dim;
        const auto it = std::lower_bound(cols.begin(), cols.end(), tc);
        const auto t = base + static_cast<vidx_t>(it - cols.begin());
        auto& w = b.bits[static_cast<std::size_t>(t) * Dim +
                         static_cast<std::size_t>(r - r_lo)];
        w = set_bit(w, static_cast<int>(c % Dim));
      }
    }
  });
  return b;
}

B2srAny pack_any(const Csr& a, int dim, Exec exec) {
  return dispatch_tile_dim(
      dim, [&]<int Dim>() { return B2srAny(pack_from_csr<Dim>(a, exec)); });
}

template <int Dim>
Csr unpack_to_csr(const B2srT<Dim>& b) {
  Csr a;
  a.nrows = b.nrows;
  a.ncols = b.ncols;
  a.rowptr.assign(static_cast<std::size_t>(b.nrows) + 1, 0);
  for (vidx_t tr = 0; tr < b.n_tile_rows(); ++tr) {
    const auto lo = b.tile_rowptr[static_cast<std::size_t>(tr)];
    const auto hi = b.tile_rowptr[static_cast<std::size_t>(tr) + 1];
    const vidx_t r_lo = tr * Dim;
    const vidx_t r_hi = std::min<vidx_t>(b.nrows, r_lo + Dim);
    for (vidx_t r = r_lo; r < r_hi; ++r) {
      for (vidx_t t = lo; t < hi; ++t) {
        const vidx_t c_base = b.tile_colind[static_cast<std::size_t>(t)] * Dim;
        const auto w = b.tile(t)[static_cast<std::size_t>(r - r_lo)];
        for_each_set_bit(w, [&](int j) {
          a.colind.push_back(c_base + j);
        });
      }
      a.rowptr[static_cast<std::size_t>(r) + 1] =
          static_cast<vidx_t>(a.colind.size());
    }
    // Rows past r_hi in this tile-row do not exist; rowptr entries for
    // them are filled by the running total below.
  }
  // Fill any rows that fell outside complete tile rows (none normally;
  // defensive for nrows == 0 edge).
  for (std::size_t i = 1; i < a.rowptr.size(); ++i) {
    a.rowptr[i] = std::max(a.rowptr[i], a.rowptr[i - 1]);
  }
  return a;
}

Csr unpack_any(const B2srAny& b) {
  return b.visit([](const auto& m) { return unpack_to_csr(m); });
}

template <int Dim>
void transpose_tile(const typename TileTraits<Dim>::word_t* in,
                    typename TileTraits<Dim>::word_t* out) {
  using word_t = typename TileTraits<Dim>::word_t;
  for (int c = 0; c < Dim; ++c) {
    word_t w = 0;
    for (int r = 0; r < Dim; ++r) {
      w = static_cast<word_t>(w | (static_cast<word_t>(get_bit(in[r], c)) << r));
    }
    out[c] = w;
  }
}

template <int Dim>
B2srT<Dim> transpose(const B2srT<Dim>& a, Exec exec) {
  B2srT<Dim> t;
  t.nrows = a.ncols;
  t.ncols = a.nrows;
  const vidx_t ntr_t = t.n_tile_rows();  // == a.n_tile_cols()
  const vidx_t ntiles = a.nnz_tiles();

  // CSR -> CSC on the tile index (the upper-level transpose): count,
  // prefix-scan, then a serial index-only pass assigning each source
  // tile its destination slot.  The per-tile bit transposes — the heavy
  // part — run in parallel against the precomputed slots.
  std::vector<vidx_t> counts(static_cast<std::size_t>(ntr_t), 0);
  for (const vidx_t tc : a.tile_colind) {
    ++counts[static_cast<std::size_t>(tc)];
  }
  t.tile_rowptr.resize(static_cast<std::size_t>(ntr_t) + 1);
  parallel_exclusive_scan(exec.threads, counts.data(), counts.size(),
                          t.tile_rowptr.data());
  t.tile_colind.resize(static_cast<std::size_t>(ntiles));
  t.bits.assign(a.bits.size(), typename TileTraits<Dim>::word_t{0});

  std::vector<vidx_t> dst(static_cast<std::size_t>(ntiles));
  {
    std::vector<vidx_t> cursor(t.tile_rowptr.begin(), t.tile_rowptr.end() - 1);
    for (vidx_t k = 0; k < ntiles; ++k) {
      const vidx_t tc = a.tile_colind[static_cast<std::size_t>(k)];
      dst[static_cast<std::size_t>(k)] = cursor[static_cast<std::size_t>(tc)]++;
    }
  }
  parallel_for(exec.threads, vidx_t{0}, a.n_tile_rows(), [&](vidx_t tr) {
    const auto lo = a.tile_rowptr[static_cast<std::size_t>(tr)];
    const auto hi = a.tile_rowptr[static_cast<std::size_t>(tr) + 1];
    for (vidx_t k = lo; k < hi; ++k) {
      const vidx_t d = dst[static_cast<std::size_t>(k)];
      t.tile_colind[static_cast<std::size_t>(d)] = tr;
      transpose_tile<Dim>(
          a.bits.data() + static_cast<std::size_t>(k) * Dim,
          t.bits.data() + static_cast<std::size_t>(d) * Dim);
    }
  });
  return t;
}

B2srAny transpose_any(const B2srAny& a, Exec exec) {
  return a.visit([&](const auto& m) { return B2srAny(transpose(m, exec)); });
}

NibbleB2sr4 pack_nibble4(const Csr& a) { return to_nibble4(pack_from_csr<4>(a)); }

NibbleB2sr4 to_nibble4(const B2sr4& a) {
  NibbleB2sr4 n;
  n.nrows = a.nrows;
  n.ncols = a.ncols;
  n.tile_rowptr = a.tile_rowptr;
  n.tile_colind = a.tile_colind;
  n.bytes.resize(static_cast<std::size_t>(a.nnz_tiles()) * 2);
  for (vidx_t t = 0; t < a.nnz_tiles(); ++t) {
    const auto words = a.tile(t);
    for (int half = 0; half < 2; ++half) {
      const auto lo = static_cast<std::uint8_t>(words[2 * half] & 0x0F);
      const auto hi =
          static_cast<std::uint8_t>((words[2 * half + 1] & 0x0F) << 4);
      n.bytes[static_cast<std::size_t>(t) * 2 + static_cast<std::size_t>(half)] =
          static_cast<std::uint8_t>(lo | hi);
    }
  }
  return n;
}

B2sr4 from_nibble4(const NibbleB2sr4& a) {
  B2sr4 b;
  b.nrows = a.nrows;
  b.ncols = a.ncols;
  b.tile_rowptr = a.tile_rowptr;
  b.tile_colind = a.tile_colind;
  b.bits.resize(static_cast<std::size_t>(a.nnz_tiles()) * 4);
  for (vidx_t t = 0; t < a.nnz_tiles(); ++t) {
    for (int r = 0; r < 4; ++r) {
      b.bits[static_cast<std::size_t>(t) * 4 + static_cast<std::size_t>(r)] =
          a.row(t, r);
    }
  }
  return b;
}

// Explicit instantiations for the four paper tile sizes.
template B2srT<4> pack_from_csr<4>(const Csr&, Exec);
template B2srT<8> pack_from_csr<8>(const Csr&, Exec);
template B2srT<16> pack_from_csr<16>(const Csr&, Exec);
template B2srT<32> pack_from_csr<32>(const Csr&, Exec);
template B2srT<4> pack_from_csr_reference<4>(const Csr&);
template B2srT<8> pack_from_csr_reference<8>(const Csr&);
template B2srT<16> pack_from_csr_reference<16>(const Csr&);
template B2srT<32> pack_from_csr_reference<32>(const Csr&);
template Csr unpack_to_csr<4>(const B2srT<4>&);
template Csr unpack_to_csr<8>(const B2srT<8>&);
template Csr unpack_to_csr<16>(const B2srT<16>&);
template Csr unpack_to_csr<32>(const B2srT<32>&);
template B2srT<4> transpose<4>(const B2srT<4>&, Exec);
template B2srT<8> transpose<8>(const B2srT<8>&, Exec);
template B2srT<16> transpose<16>(const B2srT<16>&, Exec);
template B2srT<32> transpose<32>(const B2srT<32>&, Exec);
template void transpose_tile<4>(const TileTraits<4>::word_t*,
                                TileTraits<4>::word_t*);
template void transpose_tile<8>(const TileTraits<8>::word_t*,
                                TileTraits<8>::word_t*);
template void transpose_tile<16>(const TileTraits<16>::word_t*,
                                 TileTraits<16>::word_t*);
template void transpose_tile<32>(const TileTraits<32>::word_t*,
                                 TileTraits<32>::word_t*);

}  // namespace bitgb
