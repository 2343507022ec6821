// Exec — the per-call execution policy of the core kernels.
//
// Every hot kernel takes a trailing Exec instead of reading process
// state: how many worker threads its parallel regions may use.  Two
// kernels running concurrently on different threads can therefore use
// different thread budgets — the enabling property of the
// Context/Descriptor execution API (graph queries carry their policy
// with them instead of mutating globals).  Cancellation is not part of
// the policy: algorithms poll Context::cancelled() at level/iteration
// boundaries, between kernel calls.  Which inner loop a kernel runs is
// not part of it either: the SIMD engine picks its AVX2 or portable
// body from CPUID (platform/simd.hpp).
//
// Exec is a plain aggregate: Exec{} runs at full hardware width,
// Exec{.threads = n} on n workers, Exec::serial() on the caller's
// thread alone.
#pragma once

namespace bitgb {

struct Exec {
  /// Worker-thread budget for parallel regions: 0 = all hardware
  /// threads, 1 = serial (never touches the pool), n = n workers
  /// (honored up to parallel.hpp's kMaxWorkerWidth ceiling).
  int threads = 0;

  /// The serial policy (1 thread).
  [[nodiscard]] static constexpr Exec serial() { return Exec{.threads = 1}; }
};

}  // namespace bitgb
