// Context — the execution descriptor every operation threads through.
//
// The public API is GraphBLAST-shaped (PAPERS.md: Yang et al.): the
// caller builds a descriptor carrying every execution knob and passes
// it to each operation, instead of free functions reading process-wide
// state.  A Context is cheap to copy, immutable-by-convention while a
// query runs, and *per query*: two queries running concurrently in one
// process can use different backends, thread budgets, timer sinks and
// RNG seeds over the same shared Graph — the property the ROADMAP's
// concurrent-serving north star needs and which process-global knobs
// made structurally impossible.
//
// No hot path reads globals or environment variables; the environment
// is one-time construction sugar (Context::from_env), which is also the
// single place BITGB_THREADS / BITGB_BACKEND are parsed and validated.
// Which inner loop a kernel runs is no descriptor field: the SIMD engine
// picks it from CPUID (platform/simd.hpp).
#pragma once

#include "platform/cancel.hpp"
#include "platform/exec.hpp"
#include "platform/fault_injector.hpp"
#include "platform/timer.hpp"

#include <cstdint>

namespace bitgb {

/// Which execution backend serves an operation.
enum class Backend {
  kReference,  ///< float-CSR framework baseline (GraphBLAST substitute)
  kBit,        ///< B2SR bit kernels (this paper)
};

[[nodiscard]] constexpr const char* backend_name(Backend b) {
  return b == Backend::kReference ? "reference-csr" : "bit-b2sr";
}

struct Context {
  /// Backend the algorithms route through.
  Backend backend = Backend::kBit;
  /// Worker-thread budget for this query's parallel regions:
  /// 0 = all hardware threads, 1 = serial (a concurrently-served query
  /// typically runs serial and lets the batch dimension scale instead).
  /// Explicit budgets are honored up to parallel.hpp's kMaxWorkerWidth
  /// ceiling (oversubscription is allowed but bounded).
  int threads = 0;
  /// Optional kernel-time sink (platform/timer.hpp); null = no timing.
  KernelTimeSink* timer = nullptr;
  /// Seed for the randomized algorithms (MIS / coloring priorities).
  std::uint64_t seed = 0x5eed;
  /// Optional cooperative-cancellation token (platform/cancel.hpp):
  /// algorithms poll it at level/iteration boundaries and return early
  /// with a valid prefix when it fires.  Null = never cancelled.
  const CancelToken* cancel = nullptr;
  /// Optional deterministic fault injector (platform/fault_injector.hpp)
  /// for failure-containment tests; null — the production default —
  /// disables every hook.
  FaultInjector* fault = nullptr;

  /// The core-kernel execution policy slice of this descriptor.
  [[nodiscard]] constexpr Exec exec() const {
    return Exec{.threads = threads, .cancel = cancel};
  }

  /// The cancellation poll (one branch when no token is armed).
  [[nodiscard]] bool cancelled() const {
    return cancel != nullptr && cancel->cancelled();
  }

  /// Fault-injection hooks — no-ops (one branch) without an injector.
  /// Algorithms place check_alloc() where their result/scratch buffers
  /// are sized and check_kernel() at each level/iteration boundary.
  void check_alloc() const {
    if (fault != nullptr) fault->on_alloc();
  }
  void check_kernel() const {
    if (fault != nullptr) fault->on_kernel();
  }

  /// Fluent copies — `ctx.with_backend(Backend::kReference)` reads as
  /// the descriptor algebra of GraphBLAST descriptors.
  [[nodiscard]] constexpr Context with_backend(Backend b) const {
    Context c = *this;
    c.backend = b;
    return c;
  }
  [[nodiscard]] constexpr Context with_threads(int n) const {
    Context c = *this;
    c.threads = n;
    return c;
  }
  [[nodiscard]] constexpr Context with_timer(KernelTimeSink* sink) const {
    Context c = *this;
    c.timer = sink;
    return c;
  }
  [[nodiscard]] constexpr Context with_seed(std::uint64_t s) const {
    Context c = *this;
    c.seed = s;
    return c;
  }
  [[nodiscard]] constexpr Context with_cancel(const CancelToken* tok) const {
    Context c = *this;
    c.cancel = tok;
    return c;
  }
  [[nodiscard]] constexpr Context with_fault(FaultInjector* inj) const {
    Context c = *this;
    c.fault = inj;
    return c;
  }

  /// One-time environment sugar — THE single place the library touches
  /// getenv.  Reads and validates:
  ///   BITGB_THREADS          integer >= 1 (no trailing junk)
  ///   BITGB_BACKEND          "bit" | "reference"
  /// and throws std::invalid_argument naming the variable and the
  /// offending value on anything else — garbage fails loudly instead of
  /// silently falling back.  Unset variables keep the defaults above.
  [[nodiscard]] static Context from_env();
};

}  // namespace bitgb
