#include "benchlib/kernel_sweep.hpp"

#include "baseline/csrgemm.hpp"
#include "baseline/csrmv.hpp"
#include "core/bmm.hpp"
#include "core/bmv.hpp"
#include "core/pack.hpp"
#include "platform/timer.hpp"

#include <ostream>
#include <random>

namespace bitgb::bench {

namespace {

// Deterministic half-zero multiplier vector, as the BMV schemes see in
// frontier-style workloads.
std::vector<value_t> make_vector(vidx_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution zero(0.5);
  std::uniform_real_distribution<float> val(0.5f, 2.0f);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = zero(rng) ? 0.0f : val(rng);
  return v;
}

}  // namespace

SweepResult run_kernel_sweep(const DeviceProfile& profile,
                             const SweepOptions& opts) {
  SweepResult result;
  const Exec exec{.threads = profile.num_threads};
  const auto corpus = full_corpus(opts.scale);

  for (const auto& entry : corpus) {
    const Csr& m = entry.matrix;
    if (m.nnz() == 0) continue;
    const double density = m.density();

    // Baseline: float CSR with unit values (how the compared GPU
    // frameworks store a binary adjacency, §III-B).
    Csr unit = m;
    unit.val.assign(static_cast<std::size_t>(m.nnz()), 1.0f);
    const auto xf = make_vector(m.ncols, 0xBEEF);

    std::vector<value_t> y;
    const double t_csrmv =
        time_avg_ms([&] { baseline::csrmv(unit, xf, y, exec); });

    const bool do_bmm = m.nnz() <= opts.bmm_nnz_cap;
    double t_csrgemm = 0.0;
    if (do_bmm) {
      t_csrgemm = time_avg_ms([&] { (void)baseline::csrgemm(unit, unit, exec); });
    }

    for (const int dim : kTileDims) {
      dispatch_tile_dim(dim, [&]<int Dim>() {
        const B2srT<Dim> a = pack_from_csr<Dim>(m, exec);
        const auto xb = PackedVecT<Dim>::from_values(xf);

        PackedVecT<Dim> yb;
        const double t_bbb =
            time_avg_ms([&] { bmv_bin_bin_bin(a, xb, yb, exec); });
        result.bmv_bin_bin_bin.push_back(
            {entry.name, density, Dim, t_csrmv / t_bbb});

        std::vector<value_t> yf;
        const double t_bbf =
            time_avg_ms([&] { bmv_bin_bin_full(a, xb, yf, exec); });
        result.bmv_bin_bin_full.push_back(
            {entry.name, density, Dim, t_csrmv / t_bbf});

        const double t_bff = time_avg_ms(
            [&] { bmv_bin_full_full<Dim, PlusTimesOp>(a, xf, yf, exec); });
        result.bmv_bin_full_full.push_back(
            {entry.name, density, Dim, t_csrmv / t_bff});

        if (do_bmm) {
          const double t_bmm =
              time_avg_ms([&] { (void)bmm_bin_bin_sum(a, a, exec); });
          result.bmm_bin_bin_sum.push_back(
              {entry.name, density, Dim, t_csrgemm / t_bmm});
        }
        return 0;
      });
    }
  }
  return result;
}

void print_sweep(std::ostream& os, const std::string& figure_name,
                 const SweepResult& r) {
  print_sweep_figure(os, figure_name + "a: bmv_bin_bin_bin() vs csrmv",
                     r.bmv_bin_bin_bin);
  print_sweep_figure(os, figure_name + "b: bmv_bin_bin_full() vs csrmv",
                     r.bmv_bin_bin_full);
  print_sweep_figure(os, figure_name + "c: bmv_bin_full_full() vs csrmv",
                     r.bmv_bin_full_full);
  print_sweep_figure(os, figure_name + "d: bmm_bin_bin_sum() vs csrgemm",
                     r.bmm_bin_bin_sum);
}

}  // namespace bitgb::bench
