// SIMD engine parity: every simd:: entry (the body CPUID picks — AVX2
// on an AVX2 host) must equal simd::portable:: (the body every other
// host runs) exactly, tile-row by tile-row — over the small_matrices()
// oracle corpus plus randomized tail-dim graphs (sizes deliberately not
// multiples of any tile dim) and an all-ones complete graph, at all
// four tile dims.  frontier_row_accum also runs on synthetic tile-rows
// (every B2SR-4 tile pattern, a long random B2SR-8 row, tail tile
// columns of every width), masked_row_dot on synthetic B tile-rows of
// every length 0..40 at dims 4 and 8, and bbb_row_or's wanted rows
// (its early exit) on synthetic tile-rows of every length 0..40 at
// every dim, against the full OR.  The integer entries (OR /
// popcount-add) are exact, and the semiring entry's two bodies fold
// the same float lanes in the same order, so every comparison is ==,
// not a tolerance.  The kernels' own semantics are
// pinned against dense references in test_bmv, test_bmm and
// test_bmv_masked; this suite pins the two engine bodies to each
// other, plus the semiring kernel's thread-count invariance and the
// batched push/pull duality.
#include "core/bmv.hpp"
#include "core/frontier_batch.hpp"
#include "core/pack.hpp"
#include "platform/simd.hpp"
#include "sparse/convert.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace bitgb {
namespace {

/// The complete digraph on n vertices, self-loops included: every tile
/// is all-ones except the tail tiles, which are all-ones up to n.
Coo complete_graph(vidx_t n) {
  Coo m;
  m.nrows = n;
  m.ncols = n;
  for (vidx_t r = 0; r < n; ++r) {
    for (vidx_t c = 0; c < n; ++c) m.push(r, c);
  }
  return m;
}

/// Randomized graphs with awkward tail dims (none a multiple of 4),
/// spanning sparse to dense tiles so every AVX2 inner-loop branch
/// (multi-tile batches, tails, dense-mask vector path, sparse-mask
/// fallback, all-ones tiles, long pack runs) executes.
const std::vector<std::pair<std::string, Csr>>& fuzz_graphs() {
  static const auto graphs = [] {
    std::vector<std::pair<std::string, Csr>> out;
    out.emplace_back("fuzz_random_157", coo_to_csr(gen_random(157, 2500, 71)));
    out.emplace_back("fuzz_random_dense_83",
                     coo_to_csr(gen_random(83, 3400, 72)));
    out.emplace_back("fuzz_banded_203", coo_to_csr(gen_banded(203, 11, 0.7, 73)));
    out.emplace_back("fuzz_stripe_149", coo_to_csr(gen_stripe(149, 5, 0.6, 74)));
    out.emplace_back("fuzz_rmat_s7", coo_to_csr(gen_rmat(7, 1100, 75)));
    out.emplace_back("fuzz_road_9x13", coo_to_csr(gen_road(9, 13, 0.05, 76)));
    out.emplace_back("fuzz_complete_45", coo_to_csr(complete_graph(45)));
    return out;
  }();
  return graphs;
}

const std::pair<std::string, Csr>& parity_matrix(int mi) {
  if (mi < test::kSmallMatrixCount) return test::small_matrix(mi);
  return fuzz_graphs().at(
      static_cast<std::size_t>(mi - test::kSmallMatrixCount));
}

const int kParityMatrixCount =
    test::kSmallMatrixCount + static_cast<int>(fuzz_graphs().size());

FrontierBatch random_batch(vidx_t n, int batch, std::uint64_t seed,
                           double density) {
  FrontierBatch f(n, batch);
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution on(density);
  for (vidx_t v = 0; v < n; ++v) {
    for (int b = 0; b < batch; ++b) {
      if (on(rng)) f.set(v, b);
    }
  }
  return f;
}

class SimdParityTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int dim() const { return std::get<0>(GetParam()); }
  const Csr& csr() const { return parity_matrix(std::get<1>(GetParam())).second; }
  std::string name() const {
    return parity_matrix(std::get<1>(GetParam())).first + "/dim" +
           std::to_string(dim());
  }
  std::string where(vidx_t tr) const {
    return name() + " tile-row " + std::to_string(tr);
  }

  template <int Dim>
  PackedVecT<Dim> random_packed(vidx_t n, std::uint64_t seed,
                                double density) const {
    PackedVecT<Dim> v(n);
    std::mt19937_64 rng(seed);
    std::bernoulli_distribution on(density);
    for (vidx_t i = 0; i < n; ++i) {
      if (on(rng)) v.set(i);
    }
    return v;
  }

  /// A semiring input: finite values of mixed sign and magnitude (so
  /// plus-times sums round), and with `infinities` some +inf (unreached
  /// SSSP vertices) and -inf (max-times' identity) entries.
  std::vector<value_t> semiring_x(vidx_t n, std::uint64_t seed,
                                  bool infinities) const {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> val(-1.0f, 1.0f);
    std::uniform_int_distribution<int> scale(-8, 8);
    std::uniform_int_distribution<int> kind(0, 9);
    std::vector<value_t> x(static_cast<std::size_t>(n));
    for (auto& v : x) {
      const int k = kind(rng);
      if (infinities && k == 0) {
        v = std::numeric_limits<value_t>::infinity();
      } else if (infinities && k == 1) {
        v = -std::numeric_limits<value_t>::infinity();
      } else {
        v = std::ldexp(val(rng), scale(rng));
      }
    }
    return x;
  }
};

/// Call fn(tr, lo, hi) for every tile-row of `a`, empty ones included.
template <int Dim, typename Fn>
void for_each_tile_row(const B2srT<Dim>& a, Fn&& fn) {
  for (vidx_t tr = 0; tr < a.n_tile_rows(); ++tr) {
    fn(tr, a.tile_rowptr[static_cast<std::size_t>(tr)],
       a.tile_rowptr[static_cast<std::size_t>(tr) + 1]);
  }
}

TEST_P(SimdParityTest, BbbRowOr) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    for (const double density : {0.05, 0.5, 0.95}) {
      const auto x = random_packed<Dim>(a.ncols, 11 + dim(), density);
      for_each_tile_row(a, [&](vidx_t tr, vidx_t lo, vidx_t hi) {
        EXPECT_EQ(simd::portable::bbb_row_or<Dim>(
                      a.bits.data(), a.tile_colind.data(), x.words.data(),
                      lo, hi),
                  simd::bbb_row_or<Dim>(a.bits.data(), a.tile_colind.data(),
                                        x.words.data(), lo, hi))
            << where(tr) << " density " << density;
      });
    }
  });
}

/// bbb_row_or's `want` contract on synthetic tile-rows of every length
/// 0..40 at every dim: for want in {0, one row, the last row, random,
/// every row} both bodies return exactly (full OR) & want.  Only tile p
/// reaches the last row, and p runs over every position of the row (and
/// past its end), so the every-row and last-row exits land in each
/// AVX2 vector step and in each tile of the scalar tail.
TEST(SimdBbbRowOr, WantedRowsEqualTheFullOrMasked) {
  for (const int dim : kTileDims) {
    dispatch_tile_dim(dim, [&]<int Dim>() {
      using word_t = typename TileTraits<Dim>::word_t;
      constexpr word_t all = low_mask<word_t>(Dim);
      constexpr vidx_t kLo = 3;  // the tile-row starts past tile 0
      constexpr vidx_t kMaxLen = 40;
      std::mt19937_64 rng(static_cast<std::uint64_t>(211 + Dim));
      const auto sparse_word = [&] {
        return static_cast<word_t>(rng() & rng() & rng() & all);
      };
      std::vector<word_t> tiles(static_cast<std::size_t>(kLo + kMaxLen) * Dim);
      std::vector<vidx_t> colind(static_cast<std::size_t>(kLo + kMaxLen));
      std::vector<word_t> xwords(static_cast<std::size_t>(kMaxLen));
      int mismatches = 0;
      std::string first;
      for (vidx_t len = 0; len <= kMaxLen; ++len) {
        const vidx_t hi = kLo + len;
        for (vidx_t p = 0; p <= len; ++p) {
          for (vidx_t t = kLo; t < hi; ++t) {
            const auto ti = static_cast<std::size_t>(t);
            const bool settles = t == kLo + p;
            // 7 is prime to 40: distinct tiles read distinct x words.
            colind[ti] = (t * 7) % kMaxLen;
            xwords[static_cast<std::size_t>(colind[ti])] =
                settles ? all
                        : (rng() % 4 == 0 ? word_t{0}
                                          : static_cast<word_t>(rng() & all));
            for (int r = 0; r < Dim; ++r) {
              tiles[ti * Dim + static_cast<std::size_t>(r)] =
                  settles ? all : r == Dim - 1 ? word_t{0} : sparse_word();
            }
          }
          word_t full = 0;
          for (vidx_t t = kLo; t < hi; ++t) {
            const auto ti = static_cast<std::size_t>(t);
            const word_t xw = xwords[static_cast<std::size_t>(colind[ti])];
            for (int r = 0; r < Dim; ++r) {
              if ((tiles[ti * Dim + static_cast<std::size_t>(r)] & xw) != 0) {
                full = set_bit(full, r);
              }
            }
          }
          const word_t one_row = set_bit(word_t{0}, static_cast<int>(p % Dim));
          const word_t last_row = set_bit(word_t{0}, Dim - 1);
          const word_t random = static_cast<word_t>(rng() & all);
          for (const word_t want :
               {word_t{0}, one_row, last_row, random, all}) {
            const auto expected = static_cast<word_t>(full & want);
            const word_t portable = simd::portable::bbb_row_or<Dim>(
                tiles.data(), colind.data(), xwords.data(), kLo, hi, want);
            const word_t dispatched = simd::bbb_row_or<Dim>(
                tiles.data(), colind.data(), xwords.data(), kLo, hi, want);
            if ((portable != expected || dispatched != expected) &&
                mismatches++ == 0) {
              first = "length " + std::to_string(len) + ", settling tile " +
                      std::to_string(p) + ", want " + std::to_string(want) +
                      ": expected " + std::to_string(expected) +
                      ", portable " + std::to_string(portable) +
                      ", dispatched " + std::to_string(dispatched);
            }
          }
        }
      }
      EXPECT_EQ(0, mismatches) << "dim " << Dim << ", first: " << first;
    });
  }
}

TEST_P(SimdParityTest, BbfRowAccum) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    for (const double density : {0.1, 0.9}) {
      const auto x = random_packed<Dim>(a.ncols, 19 + dim(), density);
      for_each_tile_row(a, [&](vidx_t tr, vidx_t lo, vidx_t hi) {
        // Non-zero starting counts: both bodies accumulate (+=).
        std::array<std::int32_t, Dim> want{}, got{};
        for (int r = 0; r < Dim; ++r) want[r] = got[r] = r;
        simd::portable::bbf_row_accum<Dim>(a.bits.data(), a.tile_colind.data(),
                                           x.words.data(), lo, hi,
                                           want.data());
        simd::bbf_row_accum<Dim>(a.bits.data(), a.tile_colind.data(),
                                 x.words.data(), lo, hi, got.data());
        EXPECT_EQ(want, got) << where(tr) << " density " << density;
      });
    }
  });
}

TEST_P(SimdParityTest, RowsPopAccum) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    for_each_tile_row(a, [&](vidx_t tr, vidx_t lo, vidx_t hi) {
      std::array<std::int32_t, Dim> want{}, got{};
      for (int r = 0; r < Dim; ++r) want[r] = got[r] = 3 * r;
      simd::portable::rows_pop_accum<Dim>(a.bits.data(), lo, hi, want.data());
      simd::rows_pop_accum<Dim>(a.bits.data(), lo, hi, got.data());
      EXPECT_EQ(want, got) << where(tr);
    });
  });
}

// (A, B, M) = (a, a, a): every mask tile (tr, j) against B's tile-row
// j, over A's tile-row tr scattered into a dense row.  Word 0 of every
// other scattered tile is cleared, so the dense rows hold present A
// tiles whose first word is zero (every tile of fuzz_complete_45 stays
// present).
TEST_P(SimdParityTest, MaskedRowDot) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    using word_t = typename TileTraits<Dim>::word_t;
    const auto a = pack_from_csr<Dim>(csr());
    std::vector<word_t> dense(static_cast<std::size_t>(a.n_tile_cols()) * Dim);
    for_each_tile_row(a, [&](vidx_t tr, vidx_t lo, vidx_t hi) {
      for (vidx_t t = lo; t < hi; ++t) {
        const auto words = a.tile(t);
        word_t* d = dense.data() +
                    static_cast<std::size_t>(a.tile_colind[t]) * Dim;
        std::copy(words.begin(), words.end(), d);
        if ((t - lo) % 2 == 1) d[0] = 0;
      }
      for (vidx_t tm = lo; tm < hi; ++tm) {
        const vidx_t j = a.tile_colind[tm];
        if (j >= a.n_tile_rows()) continue;
        const vidx_t blo = a.tile_rowptr[static_cast<std::size_t>(j)];
        const vidx_t bhi = a.tile_rowptr[static_cast<std::size_t>(j) + 1];
        const word_t* mwords = a.tile(tm).data();
        EXPECT_EQ(simd::portable::masked_row_dot<Dim>(
                      dense.data(), a.tile_colind.data(), a.bits.data(), blo,
                      bhi, mwords),
                  simd::masked_row_dot<Dim>(dense.data(), a.tile_colind.data(),
                                            a.bits.data(), blo, bhi, mwords))
            << where(tr) << " mask tile " << tm;
      }
      std::fill(dense.begin(), dense.end(), word_t{0});
    });
  });
}

// Synthetic masked_row_dot inputs at the two byte-tile dims.  B
// tile-rows of every length 0..40 (every tail length around the AVX2
// dim-4 body's 8-tile step, and up to five whole steps), each starting
// and ending on the last tile column, the gather's highest address.
// The dense A row holds all-zero tiles at every even tile column.  The
// mask tiles have 1-4 set rows, one per non-empty pattern of four rows
// (rows 2r or 2r + 1 at dim 8).
TEST(SimdMaskedRowDot, EveryRowLengthAndMaskRowPattern) {
  for (const int dim : {4, 8}) {
    dispatch_tile_dim(dim, [&]<int Dim>() {
      using word_t = typename TileTraits<Dim>::word_t;
      constexpr vidx_t kTileCols = 38;
      constexpr int kMaxLen = 40;
      std::mt19937_64 rng(static_cast<std::uint64_t>(107 + Dim));
      const auto random_word = [&] {
        return static_cast<word_t>((rng() | 1u) & low_mask<word_t>(Dim));
      };
      std::vector<word_t> dense(static_cast<std::size_t>(kTileCols) * Dim);
      for (vidx_t k = 1; k < kTileCols; k += 2) {
        for (int r = 0; r < Dim; ++r) {
          dense[static_cast<std::size_t>(k) * Dim + r] =
              static_cast<word_t>(rng() & low_mask<word_t>(Dim));
        }
      }
      std::vector<word_t> tiles;
      std::vector<vidx_t> colind;
      std::vector<vidx_t> rowptr{0};
      for (int len = 0; len <= kMaxLen; ++len) {
        for (int t = 0; t < len; ++t) {
          for (int r = 0; r < Dim; ++r) {
            tiles.push_back(static_cast<word_t>(rng() & low_mask<word_t>(Dim)));
          }
          colind.push_back(t == 0 || t == len - 1
                               ? kTileCols - 1
                               : static_cast<vidx_t>(rng() % kTileCols));
        }
        rowptr.push_back(static_cast<vidx_t>(colind.size()));
      }
      int mismatches = 0;
      std::string first;
      for (unsigned pattern = 1; pattern < 16; ++pattern) {
        std::array<word_t, Dim> mask{};
        for (int r = 0; r < 4; ++r) {
          if ((pattern >> r) & 1u) {
            mask[static_cast<std::size_t>(r * (Dim / 4) +
                                          pattern % (Dim / 4))] = random_word();
          }
        }
        for (int len = 0; len <= kMaxLen; ++len) {
          const vidx_t lo = rowptr[static_cast<std::size_t>(len)];
          const vidx_t hi = rowptr[static_cast<std::size_t>(len) + 1];
          const std::int64_t want = simd::portable::masked_row_dot<Dim>(
              dense.data(), colind.data(), tiles.data(), lo, hi, mask.data());
          const std::int64_t got = simd::masked_row_dot<Dim>(
              dense.data(), colind.data(), tiles.data(), lo, hi, mask.data());
          if (want != got && mismatches++ == 0) {
            first = "row pattern " + std::to_string(pattern) + ", length " +
                    std::to_string(len) + ": " + std::to_string(want) +
                    " != " + std::to_string(got);
          }
        }
      }
      EXPECT_EQ(0, mismatches) << "dim " << Dim << ", first: " << first;
    });
  }
}

/// Non-zero starting accumulator words: both frontier_row_accum bodies
/// OR into acc, so a body that overwrites it loses these bits.
template <int Dim>
std::array<std::uint64_t, Dim> seeded_acc() {
  std::array<std::uint64_t, Dim> acc{};
  for (int r = 0; r < Dim; ++r) {
    acc[static_cast<std::size_t>(r)] = std::uint64_t{1} << (7 * r % 64);
  }
  return acc;
}

TEST_P(SimdParityTest, FrontierRowAccum) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    if (a.ncols == 0) return;
    for (const int batch : {3, 64}) {
      const FrontierBatch f = random_batch(a.ncols, batch, 31 + dim(), 0.3);
      for_each_tile_row(a, [&](vidx_t tr, vidx_t lo, vidx_t hi) {
        auto want = seeded_acc<Dim>();
        auto got = want;
        simd::portable::frontier_row_accum<Dim>(
            a.bits.data(), a.tile_colind.data(), lo, hi, f.rows.data(),
            f.rows.size(), want.data());
        simd::frontier_row_accum<Dim>(a.bits.data(), a.tile_colind.data(),
                                      lo, hi, f.rows.data(), f.rows.size(),
                                      got.data());
        EXPECT_EQ(want, got) << where(tr) << " batch " << batch;
      });
    }
  });
}

/// A synthetic tile-row for frontier_row_accum: tile t holds
/// tiles[t*Dim .. t*Dim+Dim) and sits in tile column colind[t] of a
/// 64-lane frontier of `nfrows` rows.
template <int Dim>
struct FrontierTileRow {
  std::vector<typename TileTraits<Dim>::word_t> tiles;
  std::vector<vidx_t> colind;
  FrontierBatch f;
};

/// The dispatched frontier_row_accum against the portable body on `row`:
/// tile by tile, then over the whole range, each from seeded_acc.
template <int Dim>
void expect_frontier_accum_parity(const FrontierTileRow<Dim>& row,
                                  const std::string& what) {
  const auto ntiles = static_cast<vidx_t>(row.colind.size());
  const auto run = [&](vidx_t lo, vidx_t hi) {
    auto want = seeded_acc<Dim>();
    auto got = want;
    simd::portable::frontier_row_accum<Dim>(
        row.tiles.data(), row.colind.data(), lo, hi, row.f.rows.data(),
        row.f.rows.size(), want.data());
    simd::frontier_row_accum<Dim>(row.tiles.data(), row.colind.data(), lo,
                                  hi, row.f.rows.data(), row.f.rows.size(),
                                  got.data());
    return want == got;
  };
  vidx_t mismatches = 0;
  vidx_t first = -1;
  for (vidx_t t = 0; t < ntiles; ++t) {
    if (!run(t, t + 1)) {
      if (mismatches++ == 0) first = t;
    }
  }
  EXPECT_EQ(0, mismatches) << what << ": first differing tile " << first;
  EXPECT_TRUE(run(0, ntiles)) << what << ": whole tile-row";
}

// Every one of the 2^16 B2SR-4 tile patterns, each in its own tile.
TEST(SimdFrontierRowAccum, Dim4EveryTilePattern) {
  constexpr vidx_t kTileCols = 61;
  FrontierTileRow<4> row;
  row.f = random_batch(4 * kTileCols, 64, 83, 0.5);
  for (std::uint32_t p = 0; p < (1u << 16); ++p) {
    for (int r = 0; r < 4; ++r) {
      row.tiles.push_back(static_cast<std::uint8_t>((p >> (4 * r)) & 0xFu));
    }
    row.colind.push_back(static_cast<vidx_t>(p * 7 % kTileCols));
  }
  expect_frontier_accum_parity(row, "dim 4, all tile patterns");
}

// A long random B2SR-8 tile-row against a 64-lane frontier.
TEST(SimdFrontierRowAccum, Dim8RandomTileRow) {
  constexpr vidx_t kTileCols = 40;
  FrontierTileRow<8> row;
  row.f = random_batch(8 * kTileCols, 64, 89, 0.5);
  std::mt19937_64 rng(97);
  std::uniform_int_distribution<vidx_t> col(0, kTileCols - 1);
  for (int t = 0; t < 4096; ++t) {
    std::uint64_t bits = rng();
    if (t % 3 == 0) bits &= rng();  // sparser tiles too
    for (int r = 0; r < 8; ++r) {
      row.tiles.push_back(static_cast<std::uint8_t>(bits >> (8 * r)));
    }
    row.colind.push_back(col(rng));
  }
  expect_frontier_accum_parity(row, "dim 8, random tile-row");
}

// A tail tile-column at every ncols % Dim in 1..Dim-1: its frontier
// block is cut short, and its tiles hold bits only in the valid
// columns (the B2SR zero-tail invariant).
TEST(SimdFrontierRowAccum, TailTileColumnsAtEveryWidth) {
  for (const int dim : {4, 8, 16, 32}) {
    dispatch_tile_dim(dim, [&]<int Dim>() {
      using word_t = typename TileTraits<Dim>::word_t;
      for (int valid = 1; valid < Dim; ++valid) {
        constexpr vidx_t kFull = 3;  // tile columns 0..2 full, 3 the tail
        FrontierTileRow<Dim> row;
        row.f = random_batch(kFull * Dim + valid, 64,
                             static_cast<std::uint64_t>(101 + valid), 0.5);
        std::mt19937_64 rng(static_cast<std::uint64_t>(103 * Dim + valid));
        for (int t = 0; t < 64; ++t) {
          const auto c = static_cast<vidx_t>(t % (kFull + 1));
          const word_t keep = low_mask<word_t>(c == kFull ? valid : Dim);
          for (int r = 0; r < Dim; ++r) {
            row.tiles.push_back(static_cast<word_t>(rng() & keep));
          }
          row.colind.push_back(c);
        }
        expect_frontier_accum_parity(
            row, "dim " + std::to_string(Dim) + ", tail of " +
                     std::to_string(valid) + " columns");
      }
    });
  }
}

// Every bundle's (reduce, offset) pair: plus-times on finite inputs,
// the min/max bundles with +-inf mixed in.
TEST_P(SimdParityTest, SemiringRowFold) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    const auto finite = semiring_x(a.ncols, 47 + dim(), false);
    const auto with_inf = semiring_x(a.ncols, 53 + dim(), true);
    const auto check = [&]<typename Op>(Op, const std::vector<value_t>& x,
                                        const char* op) {
      for_each_tile_row(a, [&](vidx_t tr, vidx_t lo, vidx_t hi) {
        std::array<value_t, Dim> want{}, got{};
        simd::portable::semiring_row_fold<Dim>(
            a.bits.data(), a.tile_colind.data(), lo, hi, x.data(), a.ncols,
            Op::lane_reduce, Op::map_offset, want.data());
        simd::semiring_row_fold<Dim>(a.bits.data(), a.tile_colind.data(), lo,
                                     hi, x.data(), a.ncols, Op::lane_reduce,
                                     Op::map_offset, got.data());
        EXPECT_EQ(want, got) << where(tr) << " " << op;
      });
    };
    check(PlusTimesOp{}, finite, "plus-times");
    check(MinPlusOp{}, with_inf, "min-plus");
    check(MinIdentityOp{}, with_inf, "min-identity");
    check(MaxTimesOp{}, with_inf, "max-times");
  });
}

TEST_P(SimdParityTest, SpgemmTileAccum) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    using word_t = typename TileTraits<Dim>::word_t;
    const auto a = pack_from_csr<Dim>(csr());
    const vidx_t ntiles = a.nnz_tiles();
    const auto tile = [&](vidx_t t) {
      return a.bits.data() + static_cast<std::size_t>(t % ntiles) * Dim;
    };
    // One SPA slot per tile-row, fed every tile of the row against its
    // own tile and an unrelated one, compared after every accumulate.
    for_each_tile_row(a, [&](vidx_t tr, vidx_t lo, vidx_t hi) {
      std::array<word_t, Dim> want{}, got{};
      for (vidx_t t = lo; t < hi; ++t) {
        for (const vidx_t b : {t, t * 7 + 3}) {
          simd::portable::spgemm_tile_accum<Dim>(tile(t), tile(b), want.data());
          simd::spgemm_tile_accum<Dim>(tile(t), tile(b), got.data());
          EXPECT_EQ(want, got) << where(tr) << " tile " << t << " x " << b;
        }
      }
    });
  });
}

// The semiring kernel's result does not depend on the thread count.
TEST_P(SimdParityTest, BmvBinFullFullThreadInvariant) {
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    const auto finite = semiring_x(a.ncols, 59 + dim(), false);
    const auto with_inf = semiring_x(a.ncols, 61 + dim(), true);
    const auto mask = random_packed<Dim>(a.nrows, 67 + dim(), 0.5);
    const auto check = [&]<typename Op>(Op, const std::vector<value_t>& x,
                                        const char* op) {
      std::vector<value_t> y1, y4;
      bmv_bin_full_full<Dim, Op>(a, x, y1, Exec::serial());
      bmv_bin_full_full<Dim, Op>(a, x, y4, Exec{.threads = 4});
      EXPECT_EQ(y1, y4) << name() << " " << op;
      for (const bool complement : {false, true}) {
        std::vector<value_t> m1(static_cast<std::size_t>(a.nrows), -7.0f);
        auto m4 = m1;
        bmv_bin_full_full_masked<Dim, Op>(a, x, mask, complement, m1,
                                          Exec::serial());
        bmv_bin_full_full_masked<Dim, Op>(a, x, mask, complement, m4,
                                          Exec{.threads = 4});
        EXPECT_EQ(m1, m4) << name() << " " << op << " masked, complement "
                          << complement;
      }
    };
    check(PlusTimesOp{}, finite, "plus-times");
    check(MinPlusOp{}, with_inf, "min-plus");
    check(MinIdentityOp{}, with_inf, "min-identity");
    check(MaxTimesOp{}, with_inf, "max-times");
  });
}

TEST_P(SimdParityTest, BmmFrontierPushMatchesPull) {
  // The push kernel is a plain scatter loop; assert it agrees with the
  // engine-driven pull kernel on the same expansion, which pins the
  // two directions together.
  dispatch_tile_dim(dim(), [&]<int Dim>() {
    const auto a = pack_from_csr<Dim>(csr());
    if (a.nrows == 0) return;
    const auto at = transpose(a);
    const FrontierBatch f = random_batch(a.nrows, 64, 41 + dim(), 0.15);
    const FrontierBatch mask = random_batch(a.ncols, 64, 43 + dim(), 0.5);

    // Pull expansion over A^T == push expansion over A.
    FrontierBatch pull;
    bmm_frontier_masked(at, f, mask, true, pull);

    FrontierBatch push(a.ncols, 64);
    std::vector<vidx_t> active;
    for (vidx_t tr = 0; tr < a.n_tile_rows(); ++tr) active.push_back(tr);
    std::vector<vidx_t> touched;
    bmm_frontier_push_masked(a, f, active, mask, push, touched);
    EXPECT_EQ(pull.rows, push.rows) << name();
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllDimsAllMatrices, SimdParityTest,
    ::testing::Combine(::testing::ValuesIn(std::vector<int>{4, 8, 16, 32}),
                       ::testing::Range(0, kParityMatrixCount)));

TEST(SimdEngine, BackendIsRuntimeVerified) {
  // active_backend() is CPUID-gated and cached: stable across calls,
  // and always one of the two named bodies.
  const auto b = simd::active_backend();
  EXPECT_EQ(b, simd::active_backend());
  EXPECT_TRUE(b == simd::Backend::kAvx2 || b == simd::Backend::kPortable);
  EXPECT_NE(std::string(simd::backend_name(b)), "?");
}

TEST(SimdEngine, TileStoreIsCacheLineAligned) {
  const auto a =
      pack_from_csr<8>(test::small_matrix_by_name("random_128"));
  ASSERT_FALSE(a.bits.empty());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.bits.data()) %
                kTileStoreAlign,
            0u);
}

}  // namespace
}  // namespace bitgb
