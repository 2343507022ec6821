#include "platform/fault_injector.hpp"

#include "platform/intrinsics.hpp"

#include <thread>

namespace bitgb {

bool FaultInjector::bernoulli(double rate, std::uint64_t counter) {
  if (rate <= 0.0) return false;
  // 53 mantissa bits of the mixed counter → a uniform draw in [0, 1).
  const double u = static_cast<double>(splitmix64(plan_.seed ^ counter) >> 11) *
                   0x1.0p-53;
  return u < rate;
}

void FaultInjector::on_kernel() {
  const std::uint64_t n =
      kernels_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (plan_.kernel_delay.count() > 0) {
    std::this_thread::sleep_for(plan_.kernel_delay);
  }
  if ((plan_.kernel_fault_after != 0 && n == plan_.kernel_fault_after) ||
      bernoulli(plan_.kernel_fault_rate, n ^ 0xfee1deadULL)) {
    thrown_.fetch_add(1, std::memory_order_relaxed);
    throw FaultInjectedError(
        "injected kernel fault (FaultPlan kernel_fault_after/rate)");
  }
}

FaultInjector::IoWriteFault FaultInjector::on_io_write(std::size_t len) {
  const std::uint64_t n =
      io_writes_.fetch_add(1, std::memory_order_relaxed) + 1;
  IoWriteFault f;
  // One-shot triggers first (deterministic scheduling beats the storm
  // rate when both would fire); the crash simulation outranks the clean
  // error so a test arming both sees the torn-temp-file path.
  if (plan_.io_short_write_after != 0 && n == plan_.io_short_write_after) {
    f.kind = IoWriteFault::Kind::kShortWrite;
  } else if ((plan_.io_error_after != 0 && n == plan_.io_error_after) ||
             bernoulli(plan_.io_error_rate, n ^ 0x10fa11ULL)) {
    f.kind = IoWriteFault::Kind::kError;
  } else if (plan_.io_bit_flip_after != 0 && n == plan_.io_bit_flip_after &&
             len > 0) {
    f.kind = IoWriteFault::Kind::kBitFlip;
    f.bit = static_cast<std::size_t>(splitmix64(plan_.seed ^ n ^
                                                0xb17f11bULL) %
                                     (static_cast<std::uint64_t>(len) * 8));
  }
  if (f.kind != IoWriteFault::Kind::kNone) {
    thrown_.fetch_add(1, std::memory_order_relaxed);
  }
  return f;
}

void FaultInjector::on_wave() {
  waves_.fetch_add(1, std::memory_order_relaxed);
  if (plan_.wave_delay.count() > 0) {
    std::this_thread::sleep_for(plan_.wave_delay);
  }
}

}  // namespace bitgb
