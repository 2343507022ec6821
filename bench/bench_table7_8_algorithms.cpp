// Tables VII and VIII reproduction: SpMV-based graph algorithm
// performance (BFS, SSSP, PR, CC) on the 16 named-matrix analogs,
// GraphBLAST-substitute baseline vs Bit-GraphBLAS, once per device
// profile:
//
//   bench_table7_8_algorithms pascal   Table VII (pascal-analog)
//   bench_table7_8_algorithms volta    Table VIII (volta-analog, full
//                                      host parallel width) — the
//                                      paper's second-GPU column
//
// Each matrix gets an "algorithm" row (whole run) and a "kernel" row
// (time inside mxv/vxm kernels only), averaged over 5 runs — the
// paper's exact reporting format.  Any other argument prints usage and
// exits 2.
#include "benchlib/algo_table.hpp"
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
  std::cout << "device profile: " << profile.name << " (stand-in for "
            << profile.paper_gpu << ")\n\n";
  print_spmv_algorithm_table(
      std::cout, profile,
      pascal ? "Table VII (pascal-analog)" : "Table VIII (volta-analog)",
      table7_matrices());
  return 0;
}
