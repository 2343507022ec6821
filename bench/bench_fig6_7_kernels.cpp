// Figures 6 and 7 reproduction: arithmetic-kernel speedups over the
// float-CSR baseline, once per device profile:
//
//   bench_fig6_7_kernels pascal   Figure 6 — the GTX 1080 stand-in
//                                 (minimum parallel width)
//   bench_fig6_7_kernels volta    Figure 7 — the Titan V stand-in (full
//                                 parallel width of the host)
//
// Comparing the two outputs shows how the B2SR-vs-CSR gap responds to
// more parallel resources — the axis the paper's two-GPU comparison
// probes.  The Volta-specific warp-synchronization overhead the paper
// discusses (§VI-E) has no host analog and is out of scope
// (EXPERIMENTS.md).  Panels: (a) bmv_bin_bin_bin, (b) bmv_bin_bin_full,
// (c) bmv_bin_full_full, (d) bmm_bin_bin_sum; series per tile size;
// x axis = nonzero density decade.  Raw points land in
// fig6{a,b,c,d}_points.csv (pascal) or fig7{a,b,c,d}_points.csv
// (volta).  Any other argument prints usage and exits 2.
#include "benchlib/kernel_sweep.hpp"
#include "benchlib/reporting.hpp"
#include "platform/device_profile.hpp"

#include <iostream>
#include <string>

int main(int argc, char** argv) {
  using namespace bitgb;
  using namespace bitgb::bench;

  const std::string arg = argc == 2 ? argv[1] : "";
  if (arg != "pascal" && arg != "volta") {
    std::cerr << "usage: " << argv[0] << " pascal|volta\n";
    return 2;
  }
  const bool pascal = arg == "pascal";
  const DeviceProfile profile = pascal ? pascal_analog() : volta_analog();
  const std::string fig = pascal ? "fig6" : "fig7";
  std::cout << "device profile: " << profile.name << " (stand-in for "
            << profile.paper_gpu << ", " << profile.num_threads
            << (profile.num_threads == 1 ? " thread" : " threads")
            << ")\n\n";

  const SweepResult r = run_kernel_sweep(profile, SweepOptions{});
  print_sweep(std::cout, pascal ? "Figure 6" : "Figure 7", r);

  write_sweep_csv(fig + "a_points.csv", r.bmv_bin_bin_bin);
  write_sweep_csv(fig + "b_points.csv", r.bmv_bin_bin_full);
  write_sweep_csv(fig + "c_points.csv", r.bmv_bin_full_full);
  write_sweep_csv(fig + "d_points.csv", r.bmm_bin_bin_sum);
  std::cout << "raw points written to " << fig << "{a,b,c,d}_points.csv\n";
  return 0;
}
