// Fuzz-style tail-bit invariant tests.
//
// Randomized matrices whose size is deliberately NOT a multiple of any
// tile dim are driven through pack -> batched BMM -> unpack, asserting
// after every batched op that the structural invariants hold: B2SR
// operands keep their out-of-range bits zero (B2srT::validate), every
// FrontierBatch keeps its lane-tail bits zero (FrontierBatch::validate),
// and the unpacked pattern round-trips exactly.  The complemented-mask
// kernels are the reason these invariants are load-bearing: ~mask turns
// tail bits ON, and only the kernels' clamping keeps them out of the
// stored result.
#include "core/bit_spgemm.hpp"
#include "core/frontier_batch.hpp"
#include "core/pack.hpp"
#include "sparse/convert.hpp"
#include "sparse/generators.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace bitgb {
namespace {

/// Dense reference of the batched expansion for one lane, with the
/// complemented mask AND-ed at the store: a vertex is in lane b of
/// `next` iff a neighbour is in lane b of `f` and the vertex is not in
/// lane b of `mask`.
void expect_lane_matches_dense(const Csr& a, const FrontierBatch& f,
                               const FrontierBatch& mask,
                               const FrontierBatch& next, int b) {
  const auto expect = test::ref_bool_mxv(a, f.column(b));
  for (vidx_t v = 0; v < a.nrows; ++v) {
    ASSERT_EQ(expect[static_cast<std::size_t>(v)] && !mask.get(v, b),
              next.get(v, b))
        << "lane " << b << " vertex " << v;
  }
}

template <int Dim>
void run_fuzz_round(std::mt19937_64& rng, int round) {
  // A shape that is never a multiple of Dim, so every packed operand
  // has a tail tile in both directions.
  std::uniform_int_distribution<vidx_t> size_dist(Dim + 1, 4 * Dim + 11);
  vidx_t n = size_dist(rng);
  if (n % Dim == 0) ++n;
  std::uniform_int_distribution<eidx_t> nnz_dist(
      0, static_cast<eidx_t>(n) * 4);
  std::uniform_int_distribution<int> batch_dist(1, FrontierBatch::kMaxBatch);
  const auto seed = rng();

  const Csr csr = coo_to_csr(gen_random(n, nnz_dist(rng), seed));
  ASSERT_TRUE(csr.validate()) << "round " << round;

  // pack: the B2SR operand itself must carry no out-of-range bits.
  const B2srT<Dim> a = pack_from_csr<Dim>(csr);
  ASSERT_TRUE(a.validate()) << "round " << round << " n=" << n;

  // A random frontier batch of random width.
  const int batch = batch_dist(rng);
  FrontierBatch f(n, batch);
  std::bernoulli_distribution member(0.3);
  for (vidx_t v = 0; v < n; ++v) {
    for (int b = 0; b < batch; ++b) {
      if (member(rng)) f.set(v, b);
    }
  }
  ASSERT_TRUE(f.validate());

  // BMM with a complemented mask: ~mask sets every tail bit; the store
  // clamp must keep them out of the result, and every lane must match
  // the dense oracle.
  FrontierBatch mask(n, batch);
  for (vidx_t v = 0; v < n; ++v) {
    for (int b = 0; b < batch; ++b) {
      if (member(rng)) mask.set(v, b);
    }
  }
  FrontierBatch masked;
  bmm_frontier_masked(a, f, mask, /*complement=*/true, masked);
  ASSERT_TRUE(masked.validate()) << "round " << round << " n=" << n
                                 << " batch=" << batch;
  SCOPED_TRACE(::testing::Message() << "round " << round);
  for (int b = 0; b < batch && !::testing::Test::HasFatalFailure(); ++b) {
    expect_lane_matches_dense(csr, f, mask, masked, b);
  }

  // Boolean spgemm over the same operand: the matrix product must also
  // respect the B2SR invariants on a tail-tiled shape.
  const B2srT<Dim> sq = bit_spgemm(a, a);
  ASSERT_TRUE(sq.validate()) << "round " << round;

  // unpack: the pattern round-trips exactly.
  const Csr back = unpack_to_csr<Dim>(a);
  ASSERT_TRUE(back.validate()) << "round " << round;
  ASSERT_EQ(test::dense_pattern(csr), test::dense_pattern(back))
      << "round " << round;
}

template <int Dim>
void fuzz_dim() {
  std::mt19937_64 rng(0xb17ba7c4u + Dim);
  for (int round = 0; round < 25; ++round) {
    run_fuzz_round<Dim>(rng, round);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FuzzTailBits, Dim4) { fuzz_dim<4>(); }
TEST(FuzzTailBits, Dim8) { fuzz_dim<8>(); }
TEST(FuzzTailBits, Dim16) { fuzz_dim<16>(); }
TEST(FuzzTailBits, Dim32) { fuzz_dim<32>(); }

// The batched traversal loop preserves the invariants end to end on a
// tail-heavy shape: 67 vertices at every dim, 64-wide batch.
TEST(FuzzTailBits, MsBfsShapedLoopKeepsInvariants) {
  std::mt19937_64 rng(1234);
  const vidx_t n = 67;
  const Csr csr = coo_to_csr(gen_random(n, 300, 99));
  const auto run = [&]<int Dim>() {
    const B2srT<Dim> a = pack_from_csr<Dim>(csr);
    ASSERT_TRUE(a.validate());
    std::vector<vidx_t> sources(64);
    std::uniform_int_distribution<vidx_t> pick(0, n - 1);
    for (auto& s : sources) s = pick(rng);
    sources[63] = n - 1;  // tail-tile source
    FrontierBatch frontier = FrontierBatch::from_sources(n, sources);
    FrontierBatch visited = frontier;
    FrontierBatch next;
    for (int level = 0; level < 8 && frontier.any(); ++level) {
      bmm_frontier_masked(a, frontier, visited, /*complement=*/true, next);
      ASSERT_TRUE(next.validate()) << "dim " << Dim << " level " << level;
      for (vidx_t v = 0; v < n; ++v) {
        visited.rows[static_cast<std::size_t>(v)] |=
            next.rows[static_cast<std::size_t>(v)];
      }
      ASSERT_TRUE(visited.validate()) << "dim " << Dim << " level " << level;
      std::swap(frontier, next);
    }
  };
  run.operator()<4>();
  run.operator()<8>();
  run.operator()<16>();
  run.operator()<32>();
}

}  // namespace
}  // namespace bitgb
