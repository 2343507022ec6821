// Batched-oracle tests: the multi-source engine against independent
// single-source runs.
//
// The contract under test: msbfs over a batch must equal the same
// number of independent single-source bfs() runs bit-for-bit, on both
// backends — including sources living in the tail tile of a
// non-multiple-of-Dim matrix and batches narrower than the 64-bit lane
// word — with the same `iterations` and the same reach bits.
// The batched pull is checked against dense columns under masks that
// close whole tile-rows in every live lane, and a hub graph pins the
// wave's push / pull / push alternation.
#include "algorithms/bfs.hpp"
#include "algorithms/msbfs.hpp"
#include "graphblas/ops.hpp"
#include "platform/cancel.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace bitgb {
namespace {

/// Deterministic batch of `batch` sources spread over [0, n), always
/// including the last vertex (the tail-tile source) when batch > 1.
std::vector<vidx_t> spread_sources(vidx_t n, int batch) {
  std::vector<vidx_t> s(static_cast<std::size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    s[static_cast<std::size_t>(b)] =
        static_cast<vidx_t>(static_cast<std::int64_t>(b) * n / batch);
  }
  if (batch > 1) s.back() = n - 1;
  return s;
}

/// A hub graph with isolated vertices: the symmetrized
/// gen_rmat(14, 32768, 7), n = 16384, over half of it isolated.  A
/// 64-wide wave from spread_sources pushes, pulls and pushes again at
/// every dim, and its lane from the isolated n - 1 dies after level 0
/// (MsBfs.HubGraphWavePushesPullsAndPushesAgain pins both).
const Csr& hub_graph() {
  static const Csr a = symmetrize(coo_to_csr(gen_rmat(14, 32768, 7)));
  return a;
}

// ---------------------------------------------------------------------
// FrontierBatch unit behaviour
// ---------------------------------------------------------------------

TEST(FrontierBatch, FromSourcesSetsOneBitPerColumn) {
  const std::vector<vidx_t> sources = {3, 0, 3, 61};  // duplicates allowed
  const auto f = FrontierBatch::from_sources(62, sources);
  EXPECT_TRUE(f.validate());
  EXPECT_EQ(4, f.batch);
  EXPECT_EQ(4, f.count());
  for (int b = 0; b < f.batch; ++b) {
    EXPECT_TRUE(f.get(sources[static_cast<std::size_t>(b)], b)) << b;
  }
}

TEST(FrontierBatch, FromSourcesRejectsBadBatches) {
  EXPECT_THROW((void)FrontierBatch::from_sources(10, {}),
               std::invalid_argument);
  EXPECT_THROW((void)FrontierBatch::from_sources(10, {10}),
               std::invalid_argument);
  EXPECT_THROW((void)FrontierBatch::from_sources(10, {-1}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)FrontierBatch::from_sources(100, std::vector<vidx_t>(65, 1)),
      std::invalid_argument);
}

TEST(FrontierBatch, ValidateCatchesLaneTailBits) {
  FrontierBatch f(8, 3);
  f.set(2, 1);
  EXPECT_TRUE(f.validate());
  f.rows[2] |= FrontierBatch::word_t{1} << 3;  // beyond batch: invalid
  EXPECT_FALSE(f.validate());
  f.reset(2, 3);
  EXPECT_TRUE(f.validate());
}

TEST(FrontierBatch, SetResetCountColumn) {
  FrontierBatch f(70, 64);
  f.set(69, 63);
  f.set(0, 0);
  EXPECT_EQ(2, f.count());
  const auto col = f.column(63);
  EXPECT_TRUE(col[69]);
  EXPECT_FALSE(col[0]);
  f.reset(69, 63);
  EXPECT_FALSE(f.get(69, 63));
  EXPECT_EQ(1, f.count());
}

// ---------------------------------------------------------------------
// Batched op: bit BMM sweep == dense per-column reference
// ---------------------------------------------------------------------

class BatchedOpTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BatchedOpTest, BitExpansionMatchesDenseColumns) {
  const auto [dim, mi] = GetParam();
  const auto& [name, csr] = test::small_matrix(mi);
  gb::GraphOptions opts;
  opts.tile_dim = dim;
  const gb::Graph g = gb::Graph::from_csr(csr, opts);
  const vidx_t n = g.num_vertices();
  if (n == 0) return;

  const int batch = 17;  // narrower than the 64-bit lane word
  const auto sources = spread_sources(n, std::min<int>(batch, n));
  const FrontierBatch f = FrontierBatch::from_sources(n, sources);
  FrontierBatch visited = f;

  FrontierBatch next_bit;
  const Context ctx;
  dispatch_tile_dim(g.tile_dim(), [&]<int Dim>() {
    gb::bit_mxm_frontier_masked<Dim>(ctx, g.packed_t().as<Dim>(), f, visited,
                                     next_bit);
    return 0;
  });
  ASSERT_TRUE(next_bit.validate()) << name;

  // Dense column-by-column reference: next(., b) = (A^T x f_b) & ~vis_b.
  for (int b = 0; b < f.batch; ++b) {
    const auto expect = test::ref_bool_mxv(g.adjacency_t(), f.column(b));
    for (vidx_t v = 0; v < n; ++v) {
      const bool want =
          expect[static_cast<std::size_t>(v)] && !visited.get(v, b);
      EXPECT_EQ(want, next_bit.get(v, b)) << name << " v=" << v << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDims, BatchedOpTest,
    ::testing::Combine(::testing::ValuesIn(kTileDims),
                       ::testing::Range(0, test::kSmallMatrixCount)));

// The pull's mask-first skip: tile-row tr is closed in every live lane
// when tr % 3 == 0, open in exactly one (row, live lane) that the
// product reaches when tr % 3 == 1, and randomly masked otherwise.
// Dead lanes (all-zero frontier columns) stay open everywhere, so only
// the live-lane clamp lets the kernel skip a closed tile-row.
TEST(BatchedPull, MaskFirstSkipMatchesDenseColumns) {
  const Csr m = symmetrize(coo_to_csr(gen_random(203, 1400, 17)));
  const vidx_t n = m.nrows;  // 203: a tail tile at every dim
  for (const int dim : kTileDims) {
    gb::GraphOptions opts;
    opts.tile_dim = dim;
    const gb::Graph g = gb::Graph::from_csr(m, opts);
    for (const int batch : {1, 17, 64}) {
      std::mt19937_64 rng(static_cast<std::uint64_t>(dim * 100 + batch));
      const auto live = [&](int b) { return batch == 1 || b % 4 != 3; };
      FrontierBatch f(n, batch);
      for (vidx_t v = 0; v < n; ++v) {
        for (int b = 0; b < batch; ++b) {
          if (live(b) && rng() % 8 == 0) f.set(v, b);
        }
      }
      std::vector<std::vector<bool>> reach(static_cast<std::size_t>(batch));
      for (int b = 0; b < batch; ++b) {
        reach[static_cast<std::size_t>(b)] =
            test::ref_bool_mxv(g.adjacency_t(), f.column(b));
      }
      // pass(v, b): the mask lets (v, b) through.
      FrontierBatch pass(n, batch);
      for (vidx_t tr = 0; tr * dim < n; ++tr) {
        const vidx_t r0 = tr * dim;
        const vidx_t rend = std::min<vidx_t>(n, r0 + dim);
        for (vidx_t v = r0; v < rend; ++v) {
          for (int b = 0; b < batch; ++b) {
            const bool open = !live(b) || (tr % 3 == 2 && rng() % 2 == 0);
            if (open) pass.set(v, b);
          }
        }
        if (tr % 3 != 1) continue;
        bool opened = false;
        for (vidx_t v = r0; v < rend && !opened; ++v) {
          for (int b = 0; b < batch && !opened; ++b) {
            if (live(b) && reach[static_cast<std::size_t>(b)]
                                [static_cast<std::size_t>(v)]) {
              pass.set(v, b);
              opened = true;
            }
          }
        }
      }
      for (const bool complement : {false, true}) {
        FrontierBatch mask = pass;
        if (complement) {
          for (auto& w : mask.rows) w = ~w & mask.lane_mask();
        }
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(::testing::Message()
                       << "dim=" << dim << " batch=" << batch
                       << " complement=" << complement
                       << " threads=" << threads);
          FrontierBatch next;
          dispatch_tile_dim(dim, [&]<int Dim>() {
            bmm_frontier_masked(g.packed_t().as<Dim>(), f, mask, complement,
                                next, Exec{.threads = threads});
            return 0;
          });
          ASSERT_TRUE(next.validate());
          for (vidx_t v = 0; v < n; ++v) {
            for (int b = 0; b < batch; ++b) {
              const bool want =
                  reach[static_cast<std::size_t>(b)]
                       [static_cast<std::size_t>(v)] &&
                  pass.get(v, b);
              ASSERT_EQ(want, next.get(v, b)) << "v=" << v << " b=" << b;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// msbfs == independent single-source bfs, bit for bit
// ---------------------------------------------------------------------

/// The MsBfsTest corpus: the oracle matrices, then the hub graph.
const int kMsBfsMatrixCount = test::kSmallMatrixCount + 1;

class MsBfsTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  gb::Graph make_graph() const {
    const auto [dim, mi] = GetParam();
    gb::GraphOptions opts;
    opts.tile_dim = dim;
    return gb::Graph::from_csr(mi < test::kSmallMatrixCount
                                   ? test::small_matrix(mi).second
                                   : hub_graph(),
                               opts);
  }
};

TEST_P(MsBfsTest, FullWidthBatchMatchesSingleSourceRuns) {
  const gb::Graph g = make_graph();
  const vidx_t n = g.num_vertices();
  if (n == 0) return;
  const int batch = static_cast<int>(
      std::min<vidx_t>(n, FrontierBatch::kMaxBatch));
  // Includes n - 1: a tail-tile source whenever n % Dim != 0.
  const auto sources = spread_sources(n, batch);

  const auto gold = algo::msbfs_gold(g.adjacency(), sources);
  const int deepest = *std::max_element(gold.begin(), gold.end());
  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    const auto res = algo::msbfs(test::ctx(backend), g, {sources});
    ASSERT_EQ(batch, res.batch);
    EXPECT_EQ(gold, res.levels) << gb::backend_name(backend);
    EXPECT_EQ(deepest, res.iterations) << gb::backend_name(backend);
    // Column extraction must equal the single-source bfs() result.
    for (int b = 0; b < batch; b += 13) {
      const auto single = algo::bfs(
          test::ctx(backend), g, {sources[static_cast<std::size_t>(b)]});
      std::vector<std::int32_t> column;
      std::vector<std::int32_t>* outs[] = {&column};
      algo::scatter_levels(res, b, outs);
      EXPECT_EQ(single.levels, column)
          << gb::backend_name(backend) << " column " << b;
    }
  }
}

TEST_P(MsBfsTest, NarrowBatchMatchesSingleSourceRuns) {
  const gb::Graph g = make_graph();
  const vidx_t n = g.num_vertices();
  if (n == 0) return;
  // Batches narrower than the word width, including a lone column.
  for (const int batch : {1, 3, 17}) {
    if (batch > n) continue;
    const auto sources = spread_sources(n, batch);
    const auto gold = algo::msbfs_gold(g.adjacency(), sources);
    const int deepest = *std::max_element(gold.begin(), gold.end());
    for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
      const auto res = algo::msbfs(test::ctx(backend), g, {sources});
      EXPECT_EQ(gold, res.levels)
          << gb::backend_name(backend) << " batch=" << batch;
      EXPECT_EQ(deepest, res.iterations)
          << gb::backend_name(backend) << " batch=" << batch;
    }
  }
}

TEST_P(MsBfsTest, BatchedReachMatchesLevels) {
  const gb::Graph g = make_graph();
  const vidx_t n = g.num_vertices();
  if (n == 0) return;
  const auto sources = spread_sources(n, std::min<int>(5, n));
  const auto gold = algo::msbfs_gold(g.adjacency(), sources);
  const auto batch = sources.size();
  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    const auto reach = algo::batched_reach(test::ctx(backend), g, sources);
    ASSERT_TRUE(reach.validate()) << gb::backend_name(backend);
    ASSERT_EQ(static_cast<int>(batch), reach.batch);
    for (vidx_t v = 0; v < n; ++v) {
      for (std::size_t b = 0; b < batch; ++b) {
        EXPECT_EQ(gold[static_cast<std::size_t>(v) * batch + b] !=
                      algo::kUnreached,
                  reach.get(v, static_cast<int>(b)))
            << gb::backend_name(backend) << " v=" << v << " b=" << b;
      }
    }
  }
}

TEST_P(MsBfsTest, BitWaveMatchesGoldAtOneAndFourThreads) {
  const gb::Graph g = make_graph();
  const vidx_t n = g.num_vertices();
  if (n == 0) return;
  const auto sources = spread_sources(
      n, static_cast<int>(std::min<vidx_t>(n, FrontierBatch::kMaxBatch)));
  const auto gold = algo::msbfs_gold(g.adjacency(), sources);
  const int deepest = *std::max_element(gold.begin(), gold.end());
  for (const int threads : {1, 4}) {
    const auto res = algo::msbfs(
        test::ctx(gb::Backend::kBit).with_threads(threads), g, {sources});
    EXPECT_EQ(gold, res.levels) << "threads=" << threads;
    EXPECT_EQ(deepest, res.iterations) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDims, MsBfsTest,
    ::testing::Combine(::testing::ValuesIn(kTileDims),
                       ::testing::Range(0, kMsBfsMatrixCount)));

TEST(MsBfs, HubGraphWavePushesPullsAndPushesAgain) {
  // The premise of the hub graph in the MsBfsTest cases.  Level L of
  // the wave expands the vertices some lane reached at level L - 1;
  // wave_level_pushes on their tile-rows' tiles decides its direction.
  const Csr& a = hub_graph();
  const auto sources = spread_sources(a.nrows, FrontierBatch::kMaxBatch);
  const auto isolated = [&](vidx_t v) {
    return a.rowptr[static_cast<std::size_t>(v) + 1] ==
           a.rowptr[static_cast<std::size_t>(v)];
  };
  EXPECT_TRUE(std::any_of(sources.begin(), sources.end(), isolated))
      << "no lane dies after level 0";
  const auto gold = algo::msbfs_gold(a, sources);
  const int deepest = *std::max_element(gold.begin(), gold.end());
  const auto batch = sources.size();
  for (const int dim : kTileDims) {
    gb::GraphOptions opts;
    opts.tile_dim = dim;
    const gb::Graph g = gb::Graph::from_csr(a, opts);
    std::string levels;  // 'p' push, 'l' pull, one per level
    dispatch_tile_dim(dim, [&]<int Dim>() {
      const B2srT<Dim>& p = g.packed().as<Dim>();
      for (int level = 0; level <= deepest; ++level) {
        std::vector<bool> active(static_cast<std::size_t>(p.n_tile_rows()));
        for (std::size_t i = 0; i < gold.size(); ++i) {
          if (gold[i] == level) {
            active[static_cast<std::size_t>(i / batch) / Dim] = true;
          }
        }
        eidx_t tiles = 0;
        for (vidx_t tr = 0; tr < p.n_tile_rows(); ++tr) {
          if (!active[static_cast<std::size_t>(tr)]) continue;
          tiles += p.tile_rowptr[static_cast<std::size_t>(tr) + 1] -
                   p.tile_rowptr[static_cast<std::size_t>(tr)];
        }
        levels += algo::wave_level_pushes(tiles, p.nnz_tiles()) ? 'p' : 'l';
      }
      return 0;
    });
    const auto first_pull = levels.find('l');
    EXPECT_TRUE(levels.front() == 'p' && first_pull != std::string::npos &&
                levels.find('p', first_pull) != std::string::npos)
        << "dim=" << dim << " levels=" << levels;
  }
}

TEST(MsBfs, RejectsBadBatches) {
  const gb::Graph g =
      gb::Graph::from_csr(test::small_matrix_by_name("random_61"));
  const Context ctx;
  EXPECT_THROW((void)algo::msbfs(ctx, g, {{}}), std::invalid_argument);
  EXPECT_THROW((void)algo::msbfs(ctx, g, {{61}}), std::invalid_argument);
  EXPECT_THROW(
      (void)algo::msbfs(ctx, g, {std::vector<vidx_t>(65, 0)}),
      std::invalid_argument);
}

// A pre-fired token: the bit engine stops at its first level boundary
// and the reference loop before its first source.  Both leave the
// sources at level 0, every other vertex unreached, and iterations 0.
TEST(MsBfs, PreFiredTokenStopsBeforeAnyExpansion) {
  const gb::Graph g =
      gb::Graph::from_csr(test::small_matrix_by_name("random_61"));
  CancelToken fired;
  fired.request_cancel();
  const std::vector<vidx_t> sources = {0, 7, 60};
  for (const auto backend : {gb::Backend::kReference, gb::Backend::kBit}) {
    const auto res = algo::msbfs(test::ctx(backend).with_cancel(&fired), g,
                                 {sources});
    EXPECT_EQ(0, res.iterations) << gb::backend_name(backend);
    for (vidx_t v = 0; v < g.num_vertices(); ++v) {
      for (int b = 0; b < res.batch; ++b) {
        const std::int32_t want =
            v == sources[static_cast<std::size_t>(b)] ? 0 : algo::kUnreached;
        EXPECT_EQ(want, res.level(v, b))
            << gb::backend_name(backend) << " v=" << v << " b=" << b;
      }
    }
  }
}

TEST(Batched, FixtureOracleIntact) {
  test::expect_small_matrices_match_oracle();
}

}  // namespace
}  // namespace bitgb
