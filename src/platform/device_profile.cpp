#include "platform/device_profile.hpp"

#include "platform/parallel.hpp"
#include "platform/simd.hpp"

namespace bitgb {

DeviceProfile pascal_analog() {
  return DeviceProfile{"pascal-analog", "NVIDIA GTX 1080 (Pascal)", 1};
}

DeviceProfile volta_analog() {
  return DeviceProfile{"volta-analog", "NVIDIA Titan V (Volta)",
                       hardware_width()};
}

std::vector<DeviceProfile> all_profiles() {
  return {pascal_analog(), volta_analog()};
}

Context context_for(const DeviceProfile& p, KernelTimeSink* sink) {
  Context ctx;
  ctx.threads = p.num_threads;
  ctx.timer = sink;
  return ctx;
}

std::string simd_summary() {
  return std::string("simd engine: ") +
         simd::backend_name(simd::active_backend()) + " (runtime-verified)";
}

}  // namespace bitgb
