// §III-B reproduction: bit-packing (CSR -> B2SR) conversion overhead.
// The paper reports 3-34 ms across its dataset and argues the one-time
// cost is amortized by repeated use; this bench measures conversion
// latency across matrix sizes plus the break-even point in SpMV calls.
#include "baseline/csrmv.hpp"
#include "core/bmv.hpp"
#include "core/pack.hpp"
#include "platform/timer.hpp"
#include "sparse/convert.hpp"
#include "sparse/generators.hpp"

#include <cstdio>

int main() {
  using namespace bitgb;

  std::printf("== §III-B: CSR -> B2SR conversion overhead ==\n");
  std::printf("%-22s %10s %10s", "matrix", "n", "nnz");
  for (const int dim : kTileDims) std::printf("   pack-%d(ms)", dim);
  std::printf("\n");

  struct Case {
    const char* name;
    Csr m;
  };
  const Case cases[] = {
      {"band_1k", coo_to_csr(gen_banded(1024, 8, 0.6, 1))},
      {"band_8k", coo_to_csr(gen_banded(8192, 8, 0.6, 2))},
      {"band_32k", coo_to_csr(gen_banded(32768, 8, 0.6, 3))},
      {"rmat_16k", coo_to_csr(gen_rmat(14, 300000, 4))},
      {"stripe_16k", coo_to_csr(gen_stripe(16384, 4, 0.7, 5))},
  };

  for (const auto& c : cases) {
    std::printf("%-22s %10d %10lld", c.name, c.m.nrows,
                static_cast<long long>(c.m.nnz()));
    for (const int dim : kTileDims) {
      const double t = time_avg_ms([&] { (void)pack_any(c.m, dim); });
      std::printf(" %12.2f", t);
    }
    std::printf("\n");
  }

  // Break-even: conversion cost over per-SpMV saving.
  std::printf("\n== amortization: SpMV calls to break even ==\n");
  std::printf("%-22s %12s %12s %12s %12s\n", "matrix", "csrmv(ms)",
              "bmv(ms)", "pack(ms)", "break-even");
  for (const auto& c : cases) {
    Csr unit = c.m;
    unit.val.assign(static_cast<std::size_t>(c.m.nnz()), 1.0f);
    std::vector<value_t> x(static_cast<std::size_t>(c.m.ncols), 1.0f);
    std::vector<value_t> y;
    const double t_csr = time_avg_ms([&] { baseline::csrmv(unit, x, y); });

    const B2sr8 a = pack_from_csr<8>(c.m);
    const double t_pack = time_avg_ms([&] { (void)pack_from_csr<8>(c.m); });
    const double t_bmv = time_avg_ms(
        [&] { bmv_bin_full_full<8, PlusTimesOp>(a, x, y); });

    if (t_csr > t_bmv) {
      std::printf("%-22s %12.3f %12.3f %12.2f %10.0f\n", c.name, t_csr,
                  t_bmv, t_pack, t_pack / (t_csr - t_bmv));
    } else {
      std::printf("%-22s %12.3f %12.3f %12.2f %12s\n", c.name, t_csr, t_bmv,
                  t_pack, "never");
    }
  }
  std::printf("(the paper reports 3-34 ms conversions, amortized over "
              "iterative reuse)\n");
  return 0;
}
