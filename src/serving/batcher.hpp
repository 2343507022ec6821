// Auto-batcher — the enactor half of the serving core.
//
// A worker hands it a run of same-kind requests (what RequestQueue's
// pop_batch produced); the batcher sheds the ones whose deadline
// already passed, partitions the survivors by graph slot (a popped run
// may span registered graphs), and executes each partition:
//
//   kBfs / kReach — the partition's sources coalesce into ONE
//     msbfs / batched_reach wave, with the per-source columns scattered
//     back into each request's promise (algo::scatter_levels /
//     scatter_reached).  A single-request partition skips the wave and
//     runs the plain single-source path — which is also the whole
//     execution story of the unbatched ablation (max_batch = 1).
//   kComponents — the whole partition shares the slot's memoized
//     batched_cc labelling (computed by the first components query of
//     the registration, from any worker; a registry re-add makes a new
//     slot, so the memo can never go stale).
//   kPagerank — each request runs individually on the worker's
//     Workspace with the params it carried; two pagerank requests
//     rarely describe the same computation, so there is nothing to
//     coalesce.
//
// Batched and unbatched answers are bit-identical: msbfs's level
// matrix equals independent bfs() runs column for column (test_batched
// proves the engine property, test_serving proves it end to end
// through the server).
//
// The batcher is stateless per call: all scratch lives in the caller's
// Workspace slots, so a long-lived serving worker executes any number
// of waves with zero steady-state allocations on the wave path.
//
// Failure domains (see BUILDING.md "Failure model"): each wave is its
// own containment boundary.  A wave that throws — allocator
// exhaustion, a kernel fault, anything escaping the algorithms —
// fulfills exactly its own requests with Status::kInternalError (the
// exception text rides in Reply::error), records the failure on the
// slot's circuit breaker, and the worker carries on with the next
// partition; serve_batch itself never lets an exception escape past
// its own scratch setup.  A wave whose every rider's deadline passes
// mid-flight is aborted cooperatively: the batcher arms a per-wave
// CancelToken with the LATEST deadline aboard (the wave runs while
// anyone still wants it), the algorithms poll it at level/iteration
// boundaries, and an aborted wave's requests shed with
// Status::kShedDeadline — Reply::iterations recording how far the wave
// got before it stopped burning dead work.  A slot whose breaker is
// open sheds its whole partition instantly with kShedCircuitOpen.
#pragma once

#include "platform/context.hpp"
#include "serving/request.hpp"

#include "algorithms/workspace.hpp"

#include "core/frontier_batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace bitgb::serving {

/// What one serve() call did, for the server's counters.
struct BatchOutcome {
  int executed = 0;       ///< requests answered kOk
  int shed_deadline = 0;  ///< requests expired before or during execution
  int shed_circuit = 0;   ///< requests shed by an open circuit breaker
  int failed = 0;         ///< requests fulfilled kInternalError (their
                          ///< wave threw; the worker survived)
  int waves = 0;          ///< execution waves run (>1 when the popped
                          ///< run spanned graphs, or for pagerank)
  int widest = 0;         ///< widest wave of this call (0 = none ran)
};

/// Serve `batch` (all the same QueryKind, 1..64 requests, possibly
/// spanning graphs) on behalf of one worker: shed expired requests,
/// partition by slot, gate each partition through its slot's circuit
/// breaker (tuned by `breaker`), run each admitted partition as one
/// cancellable wave, fulfill every promise.  Counts accumulate into
/// `outcome` AS requests resolve — an out-parameter so a throw (see
/// below) cannot discard the accounting of already-fulfilled requests.
/// Each executed wave's width is appended to `wave_widths` (not
/// cleared — the caller owns the scratch) for the server's histogram.
/// `batch` is left in moved-from state.
///
/// Exception safety: a throwing wave is contained inside this call —
/// its requests resolve kInternalError, later partitions still run.
/// serve_batch only lets an exception escape if its OWN scratch setup
/// fails (e.g. OOM sizing the partition vector); even then every
/// already-resolved request has been counted in `outcome`, and the
/// caller fails whatever is still unfulfilled via fail_unfulfilled.
void serve_batch(const Context& ctx, const CircuitBreakerPolicy& breaker,
                 std::vector<Request>& batch, algo::Workspace& ws,
                 std::vector<int>& wave_widths, BatchOutcome& outcome);

/// The header every reply carries, whichever path resolves it (the
/// worker's waves and sheds, the server's admission refusals): the
/// status, the query's identity, the registration that answered (blank
/// when none resolved), and the telemetry — queued from `r.submitted`
/// until `started`, fulfilled at `completed`, in a wave of `width`
/// (0 = never executed).  Result vectors are the caller's to fill.
[[nodiscard]] Reply make_reply(const Request& r, Status status,
                               clock::time_point started,
                               clock::time_point completed, int width = 0);

/// Last-ditch containment: fulfill every request in `batch` whose
/// promise is still unsatisfied with kInternalError (carrying `what`),
/// returning how many were filled.  Idempotent over partially-served
/// batches — already-fulfilled promises are skipped, so the worker can
/// sweep the whole batch after a serve_batch throw without knowing how
/// far it got.  Never throws.
int fail_unfulfilled(std::vector<Request>& batch, const char* what) noexcept;

/// AdaptiveBatch — the depth-feedback coalescing-window policy.
///
/// Replaces the static max_batch knob: instead of always popping up to
/// the cap, each worker sizes its next pop from an asymmetric EWMA of
/// the load signal (queue depth at wave completion, and the width the
/// wave actually ran at).  The signal attacks fast (a burst widens the
/// window within a wave or two, so saturation throughput reaches the
/// 64-way amortization almost immediately) and decays slow (an on/off
/// arrival gap does not collapse the window between bursts); with no
/// backlog the signal settles at 1 and the worker returns to latency-
/// optimal single-query pops.
///
/// The policy is deliberately a pure, lock-free value — one instance
/// per worker, no shared state, and therefore nothing for a GUARDED_BY
/// annotation to guard (the thread-safety audit stops here by design) —
/// and is property-tested in isolation
/// (test_serving_adaptive) against recorded arrival traces: the window
/// is monotone in sustained queue depth, never exceeds the cap, and
/// decays back to 1 when the queue drains.
class AdaptiveBatch {
 public:
  explicit AdaptiveBatch(int cap = FrontierBatch::kMaxBatch)
      : cap_(std::clamp(cap, 1, FrontierBatch::kMaxBatch)) {}

  /// Record one wave's observation — the queue depth after the pop and
  /// the widest wave the pop produced — and return the window for the
  /// next pop.
  int update(std::size_t queue_depth, int wave_width) {
    const double x = static_cast<double>(
        std::max<std::size_t>(queue_depth,
                              static_cast<std::size_t>(
                                  std::max(1, wave_width))));
    const double alpha = x > signal_ ? kAttack : kDecay;
    signal_ += alpha * (x - signal_);
    // The deadband matters: the EWMA only asymptotes toward 1 on a
    // drained queue, so a bare ceil() would pin the window at 2
    // forever.  Subtracting a sliver lets the geometric decay land.
    window_ = std::clamp(static_cast<int>(std::ceil(signal_ - kDeadband)),
                         1, cap_);
    return window_;
  }

  [[nodiscard]] int window() const { return window_; }
  [[nodiscard]] int cap() const { return cap_; }

 private:
  static constexpr double kAttack = 0.7;  ///< backlog: widen fast
  static constexpr double kDecay = 0.3;   ///< drain: narrow smoothly
  static constexpr double kDeadband = 1.0 / 16.0;  ///< lets decay reach 1

  int cap_;
  double signal_ = 1.0;
  int window_ = 1;
};

}  // namespace bitgb::serving
