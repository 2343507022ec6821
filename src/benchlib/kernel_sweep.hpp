// Kernel sweep driver — Figures 6 and 7.
//
// For every corpus matrix and every B2SR tile size, measures the
// speedup of each BMV scheme over the float-CSR SpMV baseline
// (cusparseScsrmv substitute) and of the BMM sum kernel over the
// float-CSR SpGEMM baseline (cusparseScsrgemm substitute), exactly the
// panels of the paper's Figures 6a-6d (Pascal) and 7a-7d (Volta).
// The same driver is run once per device profile.
#pragma once

#include "benchlib/corpus.hpp"
#include "benchlib/reporting.hpp"
#include "platform/device_profile.hpp"

#include <iosfwd>
#include <vector>

namespace bitgb::bench {

struct SweepResult {
  std::vector<SweepPoint> bmv_bin_bin_bin;    ///< panel (a)
  std::vector<SweepPoint> bmv_bin_bin_full;   ///< panel (b)
  std::vector<SweepPoint> bmv_bin_full_full;  ///< panel (c)
  std::vector<SweepPoint> bmm_bin_bin_sum;    ///< panel (d)
};

struct SweepOptions {
  CorpusScale scale = CorpusScale::kTimed;
  /// Skip the SpGEMM comparison above this nnz (the float baseline's
  /// A*A blows up quadratically on dense corpus entries; the paper's
  /// SpGEMM panel likewise covers the sparser population).
  eidx_t bmm_nnz_cap = 60000;
};

/// Run the sweep under the given device profile (its thread width is
/// passed per call as an Exec; no global state).
[[nodiscard]] SweepResult run_kernel_sweep(const DeviceProfile& profile,
                                           const SweepOptions& opts);

/// Print all four panels in paper order.
void print_sweep(std::ostream& os, const std::string& figure_name,
                 const SweepResult& r);

}  // namespace bitgb::bench
