#include "core/sampling.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <unordered_set>

namespace bitgb {

int SamplingProfile::recommended_dim() const {
  int best = per_dim[0].dim;
  double best_pct = per_dim[0].est_compression_pct;
  for (const auto& e : per_dim) {
    if (e.est_compression_pct < best_pct) {
      best_pct = e.est_compression_pct;
      best = e.dim;
    }
  }
  return best;
}

bool SamplingProfile::worth_converting() const {
  return std::any_of(per_dim.begin(), per_dim.end(), [](const auto& e) {
    return e.est_compression_pct < 100.0;
  });
}

SamplingProfile sample_profile(const Csr& a, vidx_t sample_rows,
                               std::uint64_t seed) {
  SamplingProfile prof;

  // Random index set S (Algorithm 1, line "N random indices").
  std::vector<vidx_t> rows;
  if (sample_rows >= a.nrows) {
    rows.resize(static_cast<std::size_t>(a.nrows));
    std::iota(rows.begin(), rows.end(), vidx_t{0});
  } else {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<vidx_t> pick(0, a.nrows - 1);
    std::unordered_set<vidx_t> chosen;
    while (static_cast<vidx_t>(chosen.size()) < sample_rows) {
      chosen.insert(pick(rng));
    }
    rows.assign(chosen.begin(), chosen.end());
    std::sort(rows.begin(), rows.end());
  }
  prof.rows_sampled = static_cast<vidx_t>(rows.size());

  for (int di = 0; di < kNumTileDims; ++di) {
    const int k = kTileDims[di];

    // Algorithm 1's ColCounter, evaluated per *tile-row*: each sampled
    // anchor row selects the k-row window (tile-row) containing it; the
    // window's distinct tile columns are counted exactly.  Averaging
    // per-tile-row counts over the sampled windows gives an unbiased
    // estimate of the non-empty tile count (full sampling reproduces
    // the exact packer's count).
    double sampled_nnz = 0.0;       // nonzeros in sampled windows
    double sampled_tiles = 0.0;     // non-empty tiles in sampled windows
    double windows = 0.0;
    vidx_t last_window = -1;
    // stamp[j] == tr once window tr has met tile column j: one compare
    // per nonzero counts the window's distinct tile columns.
    std::vector<vidx_t> stamp(static_cast<std::size_t>((a.ncols + k - 1) / k),
                              -1);
    for (const vidx_t r : rows) {
      const vidx_t tr = r / k;
      if (tr == last_window) continue;  // rows sorted: dedup windows
      last_window = tr;
      windows += 1.0;
      vidx_t distinct = 0;
      const vidx_t r_lo = tr * k;
      const vidx_t r_hi = std::min<vidx_t>(a.nrows, r_lo + k);
      for (vidx_t rr = r_lo; rr < r_hi; ++rr) {
        const auto rc = a.row_cols(rr);
        sampled_nnz += static_cast<double>(rc.size());
        for (const vidx_t c : rc) {
          vidx_t& s = stamp[static_cast<std::size_t>(c / k)];
          distinct += s != tr ? 1 : 0;
          s = tr;
        }
      }
      sampled_tiles += static_cast<double>(distinct);
    }

    const double n_tile_rows = static_cast<double>((a.nrows + k - 1) / k);
    const double window_scale = windows == 0.0 ? 0.0 : n_tile_rows / windows;
    const double est_tiles = sampled_tiles * window_scale;
    const double est_nnz = sampled_nnz * window_scale;

    std::size_t word_bytes = 1;
    switch (k) {
      case 4: word_bytes = 1; break;
      case 8: word_bytes = 1; break;
      case 16: word_bytes = 2; break;
      case 32: word_bytes = 4; break;
      default: break;
    }
    const double est_b2sr_bytes =
        (static_cast<double>((a.nrows + k - 1) / k) + 1.0) * sizeof(vidx_t) +
        est_tiles * sizeof(vidx_t) +
        est_tiles * k * static_cast<double>(word_bytes);

    const double csr_bytes =
        (static_cast<double>(a.nrows) + 1.0 + static_cast<double>(a.nnz())) *
            sizeof(vidx_t) +
        static_cast<double>(a.nnz()) * sizeof(value_t);

    SampleEstimate e;
    e.dim = k;
    e.est_nonempty_tiles = est_tiles;
    e.est_compression_pct =
        csr_bytes <= 0.0 ? 0.0 : 100.0 * est_b2sr_bytes / csr_bytes;
    e.est_occupancy_pct =
        est_tiles <= 0.0
            ? 0.0
            : 100.0 * est_nnz / (est_tiles * static_cast<double>(k) *
                                 static_cast<double>(k));
    prof.per_dim[static_cast<std::size_t>(di)] = e;
  }
  return prof;
}

}  // namespace bitgb
