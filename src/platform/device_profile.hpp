// Device profiles — the two-GPU comparison substitute.
//
// The paper evaluates on a GTX 1080 (Pascal, 20 SMs, 320 GB/s) and a
// Titan V (Volta, 80 SMs, 653 GB/s): two points on a parallel-width /
// bandwidth axis (paper Table VI).  Without GPUs we reproduce the same
// axis with two host execution profiles that differ in worker-thread
// count: "pascal-analog" (1 thread) and "volta-analog" (all cores).
// Figures 6 vs 7 and Tables VII vs VIII are regenerated once per profile.
//
// What this substitution preserves: how the B2SR-vs-CSR gap responds to
// more parallel resources (both sides scale, so relative speedups are
// comparable across profiles, as in the paper).  What it cannot
// reproduce: Volta's independent-thread-scheduling cost on __shfl_sync /
// __ballot_sync that the paper cites for its slightly lower bit-kernel
// gains on Volta (§VI-E, last paragraph); EXPERIMENTS.md notes this.
//
// A profile does not *activate* anything — it is descriptor material:
// context_for() turns one into a bitgb::Context the benches thread
// through every call.  The SIMD engine's body (AVX2 or portable) is
// chosen by CPUID at runtime, not by the profile; simd_summary()
// reports what this host runs.
#pragma once

#include "platform/context.hpp"

#include <string>
#include <vector>

namespace bitgb {

struct DeviceProfile {
  std::string name;        ///< e.g. "pascal-analog"
  std::string paper_gpu;   ///< the GPU this profile stands in for
  int num_threads = 1;     ///< host worker threads while active
};

/// The GTX 1080 stand-in: minimum parallel width.
[[nodiscard]] DeviceProfile pascal_analog();

/// The Titan V stand-in: full parallel width of the host.
[[nodiscard]] DeviceProfile volta_analog();

/// All profiles, in paper order (Pascal first).
[[nodiscard]] std::vector<DeviceProfile> all_profiles();

/// The execution Context a profile describes: its thread width,
/// optionally wired to a timer sink.  Benches pass the result (with the
/// backend of their choice) through every call.
[[nodiscard]] Context context_for(const DeviceProfile& p,
                                  KernelTimeSink* sink = nullptr);

/// One-line description of the host's SIMD state, e.g.
/// "simd engine: avx2 (runtime-verified)" — printed by the bench
/// harnesses so recorded numbers carry their provenance.
[[nodiscard]] std::string simd_summary();

}  // namespace bitgb
