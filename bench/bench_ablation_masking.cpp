// Ablation: masking strategy for masked vxm (paper §V BFS discussion).
//
// GraphBLAST early-exits per output element on the mask; the paper
// argues that inside a warp-per-tile-row kernel a per-row early exit
// only causes divergence, and instead ANDs the bitmask right before the
// output store.  A tile-row's mask is uniform for the warp that owns
// it, so both kernels here skip a closed tile-row whole; they differ
// inside an open row, where the host analog of "divergence" is a
// per-row branch in the inner loop vs a branch-free word-AND at store
// time.  This bench compares the shipped kernel (closed tile-rows
// skipped, mask AND-ed at the store) against a per-row early-exit
// variant implemented here, across visited-fraction levels.
#include "core/bmv.hpp"
#include "core/pack.hpp"
#include "platform/timer.hpp"
#include "sparse/convert.hpp"
#include "sparse/generators.hpp"

#include <cstdio>
#include <random>

namespace bitgb {
namespace {

// Early-exit variant: skips closed tile-rows like the shipped kernel,
// then checks the mask per bit-row *inside* the tile loop (the
// strategy the paper rejects for warp kernels).
template <int Dim>
void bmv_bbb_masked_early_exit(const B2srT<Dim>& a, const PackedVecT<Dim>& x,
                               const PackedVecT<Dim>& mask, bool complement,
                               PackedVecT<Dim>& y) {
  using word_t = typename TileTraits<Dim>::word_t;
  y.resize(a.nrows);
  parallel_for(vidx_t{0}, a.n_tile_rows(), [&](vidx_t tr) {
    const auto lo = a.tile_rowptr[static_cast<std::size_t>(tr)];
    const auto hi = a.tile_rowptr[static_cast<std::size_t>(tr) + 1];
    if (lo == hi) return;
    word_t mword = mask.words[static_cast<std::size_t>(tr)];
    if (complement) mword = static_cast<word_t>(~mword);
    if (mword == 0) return;  // whole tile-row masked off
    word_t out = 0;
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t xw = x.words[static_cast<std::size_t>(
          a.tile_colind[static_cast<std::size_t>(t)])];
      if (xw == 0) continue;
      const auto words = a.tile(t);
      for (int r = 0; r < Dim; ++r) {
        if (get_bit(mword, r) == 0) continue;      // early exit per row
        if (get_bit(out, r) != 0) continue;        // already found
        if ((words[static_cast<std::size_t>(r)] & xw) != 0) {
          out = set_bit(out, r);
        }
      }
    }
    y.words[static_cast<std::size_t>(tr)] =
        static_cast<word_t>(out & mword);
  });
  if (a.nrows % Dim != 0 && !y.words.empty()) {
    y.words.back() = static_cast<word_t>(y.words.back() &
                                         low_mask<word_t>(a.nrows % Dim));
  }
}

}  // namespace
}  // namespace bitgb

int main() {
  using namespace bitgb;

  const Csr m = coo_to_csr(gen_banded(16384, 16, 0.6, 1));
  const B2sr32 a = pack_from_csr<32>(m);

  std::printf("== ablation: bitmask-at-store (ours) vs early-exit ==\n");
  std::printf("matrix: band 16384, nnz %lld, B2SR-32\n\n",
              static_cast<long long>(m.nnz()));
  std::printf("%-18s %14s %16s %10s\n", "visited fraction",
              "at-store (ms)", "early-exit (ms)", "ratio");

  std::mt19937_64 rng(2);
  for (const double visited_frac : {0.0, 0.25, 0.5, 0.75, 0.95}) {
    PackedVec32 frontier(m.ncols);
    PackedVec32 visited(m.nrows);
    std::bernoulli_distribution in_frontier(0.3);
    std::bernoulli_distribution is_visited(visited_frac);
    for (vidx_t i = 0; i < m.ncols; ++i) {
      if (in_frontier(rng)) frontier.set(i);
    }
    for (vidx_t i = 0; i < m.nrows; ++i) {
      if (is_visited(rng)) visited.set(i);
    }

    PackedVec32 y;
    const double t_store = time_avg_ms(
        [&] { bmv_bin_bin_bin_masked(a, frontier, visited, true, y); });
    PackedVec32 y2;
    const double t_early = time_avg_ms(
        [&] { bmv_bbb_masked_early_exit(a, frontier, visited, true, y2); });
    if (y.words != y2.words) {
      std::printf("MISMATCH at visited=%.2f\n", visited_frac);
      return 1;
    }
    std::printf("%-18.2f %14.3f %16.3f %9.2fx\n", visited_frac, t_store,
                t_early, t_early / t_store);
  }
  std::printf("\n(the paper's rationale: in warp kernels a per-row early "
              "exit only adds divergence; a closed tile-row is skipped "
              "whole, and inside an open row the at-store AND is "
              "branch-free)\n");
  return 0;
}
