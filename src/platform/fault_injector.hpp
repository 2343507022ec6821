// FaultInjector — deterministic, seeded fault injection for the
// execution paths the serving layer must contain.
//
// Production failure modes (allocator exhaustion, a throwing kernel, a
// wave that takes far longer than its deadline budgeted) are impossible
// to schedule reliably from a test, so the injector makes them
// *schedulable*: algorithms call `on_alloc()` where they size their big
// buffers and `on_kernel()` at every level/iteration boundary (the same
// boundaries the CancelToken is polled at), the serving batcher calls
// `on_wave()` as each execution wave starts, and the injector decides —
// from nothing but its configuration, its seed, and its own call
// counters — whether that call throws std::bad_alloc, throws
// FaultInjectedError, or sleeps.  Every decision is a pure function of
// (seed, counter value), so a single-worker test replays exactly, and a
// multi-worker storm is reproducible in distribution.
//
// The injector is threaded through Context (ctx.fault); a null pointer
// — the production default — costs one branch per hook and is the
// reason the hooks are inline.  All counters are atomics: one injector
// may be shared by every worker of a Server.
//
// Knobs (all off by default; see FaultPlan):
//   bad_alloc_after / kernel_fault_after — one-shot: the Nth call to
//     the corresponding hook throws, later calls pass.  Use for "the
//     first wave fails, the second must be clean" containment tests.
//   alloc_fault_rate / kernel_fault_rate — seeded Bernoulli per call
//     (splitmix64 of seed ^ counter): sustained storms for chaos
//     suites and for tripping circuit breakers.
//   wave_delay / kernel_delay — deterministic sleeps per wave start /
//     per kernel boundary: make deadlines expire mid-flight on
//     schedule, so cancellation paths are testable without timing
//     luck.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace bitgb {

/// The exception an armed kernel fault throws — distinct from
/// std::bad_alloc so tests can tell the two containment paths apart.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const char* what_arg)
      : std::runtime_error(what_arg) {}
};

/// The injector's immutable configuration (0 / zero-duration = off).
struct FaultPlan {
  std::uint64_t seed = 0x5eedfau;  ///< drives the rate-based decisions

  /// One-shot triggers: the Nth on_alloc()/on_kernel() call throws
  /// (1 = the very first), then the trigger is spent.
  std::uint64_t bad_alloc_after = 0;
  std::uint64_t kernel_fault_after = 0;

  /// Sustained seeded Bernoulli rates in [0, 1): each hook call throws
  /// with this probability, decided by splitmix64(seed ^ counter).
  double alloc_fault_rate = 0.0;
  double kernel_fault_rate = 0.0;

  /// Deterministic induced latency: every wave start / kernel boundary
  /// sleeps this long.  The lever that makes deadlines fire mid-wave.
  std::chrono::microseconds wave_delay{0};
  std::chrono::microseconds kernel_delay{0};

  /// I/O faults, consulted by the snapshot writer's on_io_write() hook
  /// before every physical write (sparse/snapshot.hpp):
  ///   io_error_after — one-shot: the Nth write fails cleanly (the
  ///     ENOSPC analog; the writer unlinks its temp file and throws a
  ///     typed error — the atomic-rename contract holds, the previous
  ///     snapshot survives).
  ///   io_short_write_after — one-shot: the Nth write is torn halfway
  ///     and the writer "crashes" (throws WITHOUT cleanup), leaving a
  ///     truncated temp file on disk — the mid-write-crash debris
  ///     recovery must ignore.
  ///   io_bit_flip_after — one-shot: one seeded bit of the Nth write's
  ///     payload flips silently and the write SUCCEEDS — durable
  ///     on-disk corruption the load-side CRCs must catch.
  ///   io_error_rate — sustained seeded Bernoulli write failures (the
  ///     flaky-disk storm knob).
  std::uint64_t io_error_after = 0;
  std::uint64_t io_short_write_after = 0;
  std::uint64_t io_bit_flip_after = 0;
  double io_error_rate = 0.0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan = {}) : plan_(plan) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Hook at an algorithm's buffer-sizing prologue.  Throws
  /// std::bad_alloc when armed for this call.
  void on_alloc() {
    const std::uint64_t n = allocs_.fetch_add(1, std::memory_order_relaxed) + 1;
    if ((plan_.bad_alloc_after != 0 && n == plan_.bad_alloc_after) ||
        bernoulli(plan_.alloc_fault_rate, n ^ 0xa110cULL)) {
      thrown_.fetch_add(1, std::memory_order_relaxed);
      throw std::bad_alloc();
    }
  }

  /// Hook at a level/iteration boundary.  Sleeps `kernel_delay`, then
  /// throws FaultInjectedError when armed for this call.
  void on_kernel();

  /// Hook at a serving wave start.  Sleeps `wave_delay`.
  void on_wave();

  /// What the snapshot writer should do with one physical write of
  /// `len` bytes.  The injector only DECIDES; the writer enacts —
  /// kError / kShortWrite make the writer throw (with / without temp
  /// cleanup), kBitFlip makes it flip bit `bit` of its buffer and write
  /// the corrupted bytes successfully.
  struct IoWriteFault {
    enum class Kind : std::uint8_t { kNone, kError, kShortWrite, kBitFlip };
    Kind kind = Kind::kNone;
    std::size_t bit = 0;  ///< kBitFlip only: bit index within the buffer
  };

  /// Hook before one physical snapshot write.  Pure decision function
  /// of (plan, seed, write counter) — never throws, never sleeps.
  [[nodiscard]] IoWriteFault on_io_write(std::size_t len);

  /// Faults fired so far, across every hook.
  [[nodiscard]] std::uint64_t faults_thrown() const {
    return thrown_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] bool bernoulli(double rate, std::uint64_t counter);

  FaultPlan plan_;
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> kernels_{0};
  std::atomic<std::uint64_t> waves_{0};
  std::atomic<std::uint64_t> io_writes_{0};
  std::atomic<std::uint64_t> thrown_{0};
};

}  // namespace bitgb
