// Serving request/reply types — the admission-side vocabulary of the
// query server (the "frame" half of Gunrock's frame/enactor split: what
// a request is, is independent of how a worker executes it).
//
// A Request is one query — a single-source traversal (BFS levels or
// reachability) or a whole-graph analytic (PageRank, connected
// components) — against one registered graph, with an optional
// deadline.  The request carries its graph as a GraphRef snapshot
// resolved at admission: a registry remove() mid-flight cannot dangle
// it, because shared ownership keeps the slot alive until the reply is
// scattered.  Results travel through std::future — the submitting
// thread keeps the future, the worker that executes the query fulfills
// the promise, and shed requests are fulfilled immediately with a shed
// status so no future is ever left dangling.  Every fulfilment goes
// through the server's Ledger, which counts the request first.
#pragma once

#include "algorithms/pagerank.hpp"
#include "serving/registry.hpp"
#include "sparse/types.hpp"

#include <chrono>
#include <cstdint>
#include <future>
#include <iterator>
#include <string>
#include <vector>

namespace bitgb::serving {

using clock = std::chrono::steady_clock;

/// The query kinds the serving core executes.  The traversal pair
/// coalesces: up to 64 of a kind collapse into one msbfs /
/// batched_reach wave where the wave rule says it pays.  kComponents
/// waves share one memoized FastSV connected_components per graph
/// registration; kPagerank runs per-request on the worker's Workspace
/// (its params ride in the request, so two requests rarely describe
/// the same computation).
enum class QueryKind : std::uint8_t {
  kBfs,         ///< single-source BFS level vector
  kReach,       ///< single-source reachability (level != unreached)
  kPagerank,    ///< whole-graph PageRank (params in the request)
  kComponents,  ///< whole-graph connected components (memoized per slot;
                ///< a graph of 2^24 or more vertices resolves
                ///< kInternalError: FastSV carries labels in float)
};

/// Enumerator count — the size of every per-kind table (queue FIFOs,
/// counters, the name table below).
inline constexpr std::size_t kNumQueryKinds = 4;
static_assert(static_cast<std::size_t>(QueryKind::kComponents) + 1 ==
                  kNumQueryKinds,
              "QueryKind grew: bump kNumQueryKinds and extend every "
              "per-kind table (query_kind_name, queue FIFOs, stats)");
static_assert(static_cast<std::size_t>(QueryKind::kBfs) == 0 &&
                  static_cast<std::size_t>(QueryKind::kReach) == 1,
              "GraphSlot::traversal_cost indexes the traversal kinds");

[[nodiscard]] constexpr const char* query_kind_name(QueryKind k) {
  constexpr const char* kNames[] = {"bfs", "reach", "pagerank",
                                    "components"};
  static_assert(std::size(kNames) == kNumQueryKinds,
                "query_kind_name table out of sync with QueryKind");
  return kNames[static_cast<std::size_t>(k)];
}

/// Why a reply carries no result (the full Status lifecycle — who
/// fulfills which status on which path — is tabulated in BUILDING.md's
/// "Failure model" section).
enum class Status : std::uint8_t {
  kOk,            ///< result fields are valid
  kShedQueueFull, ///< admission refused: queue at capacity
  kShedDeadline,  ///< expired before or during execution (a wave that
                  ///< expires mid-flight aborts cooperatively and
                  ///< sheds; `iterations` records how far it got)
  kBadGraph,      ///< no graph registered under the requested name
  kShedShutdown,  ///< submitted after shutdown() closed admission
  kShedCircuitOpen, ///< the slot's circuit breaker is open (recent
                    ///< consecutive internal errors): shed fast without
                    ///< touching the graph until the cool-down re-probe
  kInternalError, ///< the executing wave threw (allocator exhaustion, a
                  ///< kernel fault); `error` carries the what() text.
                  ///< The worker survives — only this wave's requests
                  ///< are affected
};

inline constexpr std::size_t kNumStatuses = 7;
static_assert(static_cast<std::size_t>(Status::kInternalError) + 1 ==
                  kNumStatuses,
              "Status grew: bump kNumStatuses and extend status_name");

[[nodiscard]] constexpr const char* status_name(Status s) {
  constexpr const char* kNames[] = {
      "ok",            "shed-queue-full",   "shed-deadline", "bad-graph",
      "shed-shutdown", "shed-circuit-open", "internal-error"};
  static_assert(std::size(kNames) == kNumStatuses,
                "status_name table out of sync with Status");
  return kNames[static_cast<std::size_t>(s)];
}

struct Reply {
  Status status = Status::kOk;
  QueryKind kind = QueryKind::kBfs;
  vidx_t source = 0;

  /// Which registration answered: the slot's name and generation.  A
  /// reply that raced a registry remove() still names the snapshot it
  /// was served from (empty for kBadGraph replies, which never resolved
  /// a slot).
  std::string graph;
  std::uint64_t graph_generation = 0;

  /// kBfs: level per vertex (algo::kUnreached if never visited) —
  /// bit-identical to a standalone algo::bfs run from `source`.
  std::vector<std::int32_t> levels;
  /// kReach: 1 iff `source` reaches the vertex (a source reaches
  /// itself) — bit-identical to levels != kUnreached.
  std::vector<std::uint8_t> reached;
  /// kPagerank: the rank vector — bit-identical to algo::pagerank under
  /// the worker's descriptor with the request's params.
  std::vector<value_t> rank;
  /// kComponents: min vertex id per component — element-identical to
  /// algo::connected_components and algo::cc_gold.
  std::vector<vidx_t> component;
  /// kPagerank: iterations run; kComponents: FastSV rounds of the
  /// (possibly memoized) labelling.  On a kShedDeadline reply whose
  /// wave was aborted mid-flight, this records how many iterations ran
  /// before the cancel token fired (< the requested max — the proof the
  /// wave stopped burning its budget).
  int iterations = 0;

  /// kInternalError only: the contained exception's what() text.
  std::string error;

  /// How many queries shared the wave that produced this reply
  /// (1 = executed unbatched, 0 = never executed).
  int batch_width = 0;
  /// Admission-to-execution queueing delay (for a shed, refused or
  /// failed reply: admission to the instant it was resolved).
  double queue_ms = 0.0;
  /// When the worker fulfilled the promise — submit-side latency
  /// accounting without a clock call on the future-wait side.
  clock::time_point completed{};
};

struct Request {
  QueryKind kind = QueryKind::kBfs;
  vidx_t source = 0;
  /// The graph snapshot this query runs against, resolved at admission
  /// (shared ownership: outlives any concurrent registry remove()).
  GraphRef slot;
  /// kPagerank only: the iteration/damping parameters.
  algo::PageRankParams pagerank{};
  /// Absolute expiry: a worker that reaches the request after this
  /// instant sheds it unexecuted (admission control's second gate;
  /// clock::time_point::max() = no deadline).
  clock::time_point deadline = clock::time_point::max();
  /// Stamped by Server::submit; queue_ms telemetry measures from here.
  clock::time_point submitted{};
  std::promise<Reply> promise;
  /// Set by Ledger::resolve (serving/server.hpp), the one place the
  /// promise is fulfilled, by whichever thread owns the request.
  bool resolved = false;
};

}  // namespace bitgb::serving
