// Exec — the per-call execution policy of the core kernels.
//
// Every hot kernel takes a trailing Exec instead of reading process
// state: how many worker threads the parallel regions may use and
// which cancellation token to honor.  Two kernels running concurrently
// on different threads can therefore use different thread budgets —
// the enabling property of the Context/Descriptor execution API (graph
// queries carry their policy with them instead of mutating globals).
// Which inner loop a kernel runs is not part of the policy: the SIMD
// engine picks its AVX2 or portable body from CPUID (platform/simd.hpp).
//
// Exec is a plain aggregate: Exec{} runs at full hardware width,
// Exec{.threads = n} on n workers, Exec::serial() on the caller's
// thread alone.
#pragma once

#include "platform/cancel.hpp"

namespace bitgb {

struct Exec {
  /// Worker-thread budget for parallel regions: 0 = all hardware
  /// threads, 1 = serial (never touches the pool), n = n workers
  /// (honored up to parallel.hpp's kMaxWorkerWidth ceiling).
  int threads = 0;
  /// Cooperative-cancellation token forwarded from Context (null =
  /// never cancelled).  Kernels MAY poll it between coarse chunks of a
  /// long sweep; none is required to — the algorithm-level poll at
  /// level/iteration boundaries is the latency guarantee, and a kernel
  /// that ignores the token simply bounds cancellation latency at one
  /// sweep.
  const CancelToken* cancel = nullptr;

  /// The serial policy (1 thread).
  [[nodiscard]] static constexpr Exec serial() { return Exec{.threads = 1}; }
};

}  // namespace bitgb
