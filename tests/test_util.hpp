// Shared helpers for the test suite: small deterministic matrices,
// dense reference implementations of every kernel semantics, and
// comparison utilities.
#pragma once

#include "platform/context.hpp"
#include "sparse/convert.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace bitgb::test {

/// A Context pinned to one backend — the per-call descriptor most tests
/// thread through the algorithm API.
inline Context ctx(Backend b) { return Context{}.with_backend(b); }

/// Traversal sources worth checking on `a`: vertex 0, the highest-degree
/// vertex (lowest id on ties) and the first isolated vertex after 0, each
/// when it differs from 0.
inline std::vector<vidx_t> traversal_sources(const Csr& a) {
  std::vector<vidx_t> out = {0};
  const auto degree = [&](vidx_t v) {
    return a.rowptr[static_cast<std::size_t>(v) + 1] -
           a.rowptr[static_cast<std::size_t>(v)];
  };
  vidx_t hub = 0;
  for (vidx_t v = 1; v < a.nrows; ++v) {
    if (degree(v) > degree(hub)) hub = v;
  }
  if (hub != 0) out.push_back(hub);
  for (vidx_t v = 1; v < a.nrows; ++v) {
    if (degree(v) == 0) {
      out.push_back(v);
      break;
    }
  }
  return out;
}

/// The direction each round of frontier SSSP takes, read off its final
/// unit-weight distances: round r relaxes from the vertices at distance
/// r - 1 and pushes ('p') while they number fewer than `push_below`,
/// else pulls ('l').  The round that finds no change is not listed.
inline std::string sssp_round_directions(const std::vector<value_t>& dist,
                                         vidx_t push_below) {
  std::string rounds;
  for (int d = 0;; ++d) {
    const auto at_d =
        std::count(dist.begin(), dist.end(), static_cast<value_t>(d));
    if (at_d == 0) return rounds;
    rounds += at_d < push_below ? 'p' : 'l';
  }
}

/// Expected shape of every entry in small_matrices(), in order.  This is
/// the oracle the suite checks the fixture against (see
/// expect_small_matrices_match_oracle): parameterized tests index into
/// small_matrices() by position, so an entry added, removed, reordered, or
/// regenerated differently must update this table — otherwise Range-based
/// parameterizations silently skip (or read past) entries.
struct SmallMatrixOracle {
  const char* name;
  vidx_t nrows;
  vidx_t ncols;
  eidx_t nnz;
};

inline constexpr SmallMatrixOracle kSmallMatrixOracle[] = {
    {"empty", 64, 64, 0},         {"single", 65, 65, 1},
    {"random_61", 61, 61, 300},   {"random_128", 128, 128, 2000},
    {"band_100", 100, 100, 661},  {"band_129", 129, 129, 1158},
    {"block_96", 96, 96, 593},    {"stripe_90", 90, 90, 226},
    {"road_10x7", 70, 70, 246},   {"hybrid_120", 120, 120, 562},
    {"mycielskian6", 47, 47, 472}, {"dense_33", 33, 33, 1056},
};

/// Number of fixture matrices — use this (not a literal) as the exclusive
/// upper bound of ::testing::Range over matrix indices.
inline constexpr int kSmallMatrixCount =
    static_cast<int>(std::size(kSmallMatrixOracle));

/// A spread of small matrices covering the pattern categories plus the
/// awkward shapes (empty, single entry, dense, non-multiple-of-dim).
inline std::vector<std::pair<std::string, Csr>> small_matrices() {
  std::vector<std::pair<std::string, Csr>> out;
  out.emplace_back("empty", coo_to_csr(Coo{64, 64, {}, {}, {}}));
  {
    Coo one{65, 65, {}, {}, {}};
    one.push(33, 17);
    out.emplace_back("single", coo_to_csr(one));
  }
  out.emplace_back("random_61", coo_to_csr(gen_random(61, 300, 11)));
  out.emplace_back("random_128", coo_to_csr(gen_random(128, 2000, 12)));
  out.emplace_back("band_100", coo_to_csr(gen_banded(100, 5, 0.7, 13)));
  out.emplace_back("band_129", coo_to_csr(gen_banded(129, 9, 0.5, 14)));
  out.emplace_back("block_96", coo_to_csr(gen_block(96, 16, 5, 0.5, 15, true)));
  out.emplace_back("stripe_90", coo_to_csr(gen_stripe(90, 3, 0.8, 16)));
  out.emplace_back("road_10x7", coo_to_csr(gen_road(10, 7, 0.05, 17)));
  out.emplace_back("hybrid_120", coo_to_csr(gen_hybrid(120, 18)));
  out.emplace_back("mycielskian6", coo_to_csr(gen_mycielskian(6)));
  {
    // Fully dense 33x33 (every off-diagonal entry).
    Coo dense{33, 33, {}, {}, {}};
    for (vidx_t r = 0; r < 33; ++r) {
      for (vidx_t c = 0; c < 33; ++c) {
        if (r != c) dense.push(r, c);
      }
    }
    out.emplace_back("dense_33", coo_to_csr(dense));
  }
  return out;
}

/// The fixture set, generated once per process.  Parameterized suites draw
/// from this instead of regenerating all twelve matrices per test case.
inline const std::vector<std::pair<std::string, Csr>>&
small_matrices_cached() {
  static const auto mats = small_matrices();
  return mats;
}

/// Bounds-checked access by parameter index.  Throwing (rather than UB on
/// a raw mats[mi]) turns a stale Range(0, N) parameterization into a
/// clean test failure naming the bad index.
inline const std::pair<std::string, Csr>& small_matrix(int mi) {
  const auto& mats = small_matrices_cached();
  if (mi < 0 || static_cast<std::size_t>(mi) >= mats.size()) {
    throw std::out_of_range("small_matrix index " + std::to_string(mi) +
                            " outside [0, " + std::to_string(mats.size()) +
                            ") — update kSmallMatrixOracle and the Range() "
                            "parameterizations together");
  }
  return mats[static_cast<std::size_t>(mi)];
}

/// Lookup by oracle name; throws if the fixture no longer carries it.
inline const Csr& small_matrix_by_name(const std::string& name) {
  for (const auto& [n, m] : small_matrices_cached()) {
    if (n == name) return m;
  }
  throw std::out_of_range("small_matrices() has no entry named " + name);
}

/// Dense row-major pattern expansion of a CSR matrix (small only).
inline std::vector<bool> dense_pattern(const Csr& m) {
  std::vector<bool> cell(static_cast<std::size_t>(m.nrows) *
                         static_cast<std::size_t>(m.ncols));
  for (vidx_t r = 0; r < m.nrows; ++r) {
    for (const vidx_t c : m.row_cols(r)) {
      cell[static_cast<std::size_t>(r) * static_cast<std::size_t>(m.ncols) +
           static_cast<std::size_t>(c)] = true;
    }
  }
  return cell;
}

/// Dense-reference nnz recount: expand the CSR into a dense bitmap and
/// count set cells.  Catches duplicate or out-of-range column indices
/// that a plain colind.size() would miss.
inline eidx_t dense_recount_nnz(const Csr& m) {
  eidx_t n = 0;
  for (const bool b : dense_pattern(m)) n += b ? 1 : 0;
  return n;
}

/// Oracle check: small_matrices() matches kSmallMatrixOracle entry for
/// entry (count, order, names, dims, dense-recounted nnz) and every
/// matrix satisfies the CSR structural invariants.  Call this from any
/// suite that parameterizes over matrix indices.
inline void expect_small_matrices_match_oracle() {
  const auto& mats = small_matrices_cached();
  ASSERT_EQ(static_cast<std::size_t>(kSmallMatrixCount), mats.size())
      << "small_matrices() and kSmallMatrixOracle disagree on the entry "
         "count; update the oracle and every Range(0, kSmallMatrixCount) "
         "parameterization together";
  for (int i = 0; i < kSmallMatrixCount; ++i) {
    const auto& oracle = kSmallMatrixOracle[static_cast<std::size_t>(i)];
    const auto& [name, m] = mats[static_cast<std::size_t>(i)];
    EXPECT_EQ(oracle.name, name) << "entry " << i;
    EXPECT_EQ(oracle.nrows, m.nrows) << name;
    EXPECT_EQ(oracle.ncols, m.ncols) << name;
    EXPECT_TRUE(m.validate()) << name;
    EXPECT_EQ(m.nnz(), dense_recount_nnz(m)) << name;
#ifdef __GLIBCXX__
    // The exact nnz fingerprints come from std::uniform_* draws, whose
    // sequences are implementation-defined; they are pinned for
    // libstdc++ (what CI runs) and skipped on other standard libraries.
    EXPECT_EQ(oracle.nnz, m.nnz()) << name;
#endif
  }
}

/// Deterministic float vector with the given fraction of zeros (BMV
/// inputs need both zero and nonzero entries to exercise binarization).
inline std::vector<value_t> random_vector(vidx_t n, double zero_fraction,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> val(0.5f, 4.0f);
  std::bernoulli_distribution zero(zero_fraction);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = zero(rng) ? 0.0f : val(rng);
  return v;
}

/// Dense reference: Boolean y = A x over OR-AND.
inline std::vector<bool> ref_bool_mxv(const Csr& a,
                                      const std::vector<bool>& x) {
  std::vector<bool> y(static_cast<std::size_t>(a.nrows), false);
  for (vidx_t r = 0; r < a.nrows; ++r) {
    for (const vidx_t c : a.row_cols(r)) {
      if (x[static_cast<std::size_t>(c)]) {
        y[static_cast<std::size_t>(r)] = true;
        break;
      }
    }
  }
  return y;
}

/// Dense reference: counting y[i] = |{j in adj(i) : x[j]}|.
inline std::vector<value_t> ref_count_mxv(const Csr& a,
                                          const std::vector<bool>& x) {
  std::vector<value_t> y(static_cast<std::size_t>(a.nrows), 0.0f);
  for (vidx_t r = 0; r < a.nrows; ++r) {
    int c0 = 0;
    for (const vidx_t c : a.row_cols(r)) {
      if (x[static_cast<std::size_t>(c)]) ++c0;
    }
    y[static_cast<std::size_t>(r)] = static_cast<value_t>(c0);
  }
  return y;
}

/// Dense reference: semiring y[i] = reduce_j map(x[j]) over adj(i).
template <typename Op>
std::vector<value_t> ref_semiring_mxv(const Csr& a,
                                      const std::vector<value_t>& x) {
  std::vector<value_t> y(static_cast<std::size_t>(a.nrows), Op::identity);
  for (vidx_t r = 0; r < a.nrows; ++r) {
    value_t acc = Op::identity;
    for (const vidx_t c : a.row_cols(r)) {
      acc = Op::reduce(acc, Op::map(x[static_cast<std::size_t>(c)]));
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
  return y;
}

/// Sum over the counting product A*B via dense expansion (small only).
inline std::int64_t ref_product_sum(const Csr& a, const Csr& b) {
  std::int64_t sum = 0;
  for (vidx_t r = 0; r < a.nrows; ++r) {
    for (const vidx_t k : a.row_cols(r)) {
      sum += b.rowptr[static_cast<std::size_t>(k) + 1] -
             b.rowptr[static_cast<std::size_t>(k)];
    }
  }
  return sum;
}

/// Sum over (A * B^T) .* M via sorted-row dot products (small only).
inline std::int64_t ref_abt_masked_sum(const Csr& a, const Csr& b,
                                       const Csr& m) {
  std::int64_t sum = 0;
  for (vidx_t i = 0; i < m.nrows; ++i) {
    for (const vidx_t j : m.row_cols(i)) {
      const auto ra = a.row_cols(i);
      const auto rb = b.row_cols(j);
      std::size_t p = 0;
      std::size_t q = 0;
      while (p < ra.size() && q < rb.size()) {
        if (ra[p] < rb[q]) {
          ++p;
        } else if (rb[q] < ra[p]) {
          ++q;
        } else {
          ++sum;
          ++p;
          ++q;
        }
      }
    }
  }
  return sum;
}

/// EXPECT float vectors equal element-wise within tol (inf == inf ok).
inline void expect_vectors_near(const std::vector<value_t>& expected,
                                const std::vector<value_t>& actual,
                                double tol = 1e-5) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (std::isinf(expected[i]) || std::isinf(actual[i])) {
      EXPECT_EQ(expected[i], actual[i]) << "at index " << i;
    } else {
      EXPECT_NEAR(expected[i], actual[i], tol) << "at index " << i;
    }
  }
}

}  // namespace bitgb::test
