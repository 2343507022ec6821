// Auto-batcher — the enactor half of the serving core.
//
// A worker hands it a run of same-kind requests (what RequestQueue's
// pop_batch produced); the batcher sheds the ones whose deadline
// already passed, partitions the survivors by graph slot (a popped run
// may span registered graphs), and executes each partition:
//
//   kBfs / kReach — the wave rule (serving/registry.hpp wave_pays)
//     decides from the slot's measured costs: when width × single_ns ≥
//     wave_ns the partition's sources coalesce into ONE msbfs /
//     batched_reach wave, whose riders are answered a lane group
//     (algo::kScatterLanes = 16) at a time: one algo::scatter_levels
//     pass fills the group's level vectors (scatter_reached one reach
//     vector per rider), and the group is fulfilled before the next is
//     staged, so a worker holds at most 16 staged replies.  Otherwise
//     each request runs the plain single-source path in turn — which
//     is also the whole execution story of the unbatched ablation
//     (max_batch = 1).  Both paths time their algorithm call into the
//     slot's running means.
//   kComponents — the whole partition shares the slot's memoized
//     FastSV labelling (computed by the first components query of the
//     registration, from any worker; a registry re-add makes a new
//     slot, so the memo can never go stale).
//   kPagerank — each request runs individually on the worker's
//     Workspace with the params it carried; two pagerank requests
//     rarely describe the same computation, so there is nothing to
//     coalesce.
//
// Accounting: every request resolves through the server's Ledger
// (serving/server.hpp), which counts it under its kind and status
// before fulfilling its promise and sets its `resolved` flag, the one
// record the containment sweeps read.  A wave that answers its riders
// is counted there once it returns.  A request run on its own is a
// width-1 wave with its own start stamp, so Reply::queue_ms includes
// the runs ahead of it and the ledger's wave counters agree with
// Reply::batch_width.
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
// resolves exactly its own pending requests kInternalError (the
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

#include <vector>

namespace bitgb::serving {

class Ledger;  // serving/server.hpp

/// Serve `batch` (all the same QueryKind, 1..64 requests, possibly
/// spanning graphs) on behalf of one worker: shed expired requests,
/// partition by slot, gate each partition through its slot's circuit
/// breaker (tuned by `breaker`), run each admitted partition as one
/// cancellable wave or, where no wave pays, one request at a time, and
/// resolve every request through `ledger`, which also counts each
/// wave that answered.
///
/// Exception safety: a throwing wave is contained inside this call —
/// its requests resolve kInternalError, later partitions still run.
/// serve_batch only lets an exception escape if its OWN scratch setup
/// fails (e.g. OOM sizing the partition vector); the caller then fails
/// whatever is still unresolved via fail_unfulfilled.
void serve_batch(const Context& ctx, const CircuitBreakerPolicy& breaker,
                 std::vector<Request>& batch, algo::Workspace& ws,
                 Ledger& ledger);

/// The header every reply carries, whichever path resolves it (the
/// worker's waves and sheds, the server's admission refusals): the
/// status, the query's identity, the registration that answered (blank
/// when none resolved), and the telemetry — queued from `r.submitted`
/// until `started`, fulfilled at `completed`, in a wave of `width`
/// (0 = never executed).  Result vectors are the caller's to fill.
[[nodiscard]] Reply make_reply(const Request& r, Status status,
                               clock::time_point started,
                               clock::time_point completed, int width = 0);

/// Last-ditch containment: resolve every request in `batch` not yet
/// resolved with kInternalError (carrying `what`).  Idempotent over
/// partially-served batches — resolved requests are skipped, so the
/// worker can sweep the whole batch after a serve_batch throw without
/// knowing how far it got.  Never throws.
void fail_unfulfilled(std::vector<Request>& batch, const char* what,
                      Ledger& ledger) noexcept;

}  // namespace bitgb::serving
