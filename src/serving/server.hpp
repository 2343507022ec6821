// Server — the multi-tenant query-serving core over the Context API.
//
// One Server owns a bounded MPMC request queue (admission control:
// shed-on-full plus per-request deadlines) feeding a pool of long-lived
// serving workers.  Each worker owns a Context + Workspace pair — the
// per-thread descriptor model examples/concurrent_queries demonstrates,
// made durable — and drains the queue in same-kind batches that the
// auto-batcher (serving/batcher.hpp) executes as msbfs / batched_reach
// waves (BFS / reach), memoized batched_cc reads (components), or
// per-request pagerank runs, over the graphs of a GraphRegistry.
//
// Registry-only: every Server serves a GraphRegistry, and every submit
// names its graph.  The name is resolved ONCE at admission into a
// shared GraphRef snapshot.  An unknown name resolves the future
// immediately with Status::kBadGraph; a registry remove() racing
// in-flight queries is safe because every queued request co-owns its
// slot — the graph drains with its last reply.  Serving one graph is a
// registry of one:
//
//   GraphRegistry reg;
//   const GraphRef slot = reg.add("g", std::move(graph));  // prewarms
//   Server server(reg, opts);
//   auto fut = server.submit("g", QueryKind::kBfs, source);
//
// Waves form only where they pay: each slot keeps running means of a
// single-source run and of a batched wave per traversal kind, and a run
// of `width` traversals goes out as one wave only when width × single
// ≥ wave (serving/registry.hpp wave_pays) — the queue applies the rule
// at pop time, the batcher again per graph partition.  Backlog still
// forms 64-wide waves; light load runs one request at a time.
// ServerOptions::max_batch caps the width (1 = the unbatched ablation).
//
// Serving workers default to serial (threads = 1) Contexts: the worker
// pool itself is the parallelism, and the batch dimension — not the
// tile-row loop — is where a loaded server scales.
#pragma once

#include "core/frontier_batch.hpp"
#include "platform/context.hpp"
#include "platform/thread_annotations.hpp"
#include "serving/queue.hpp"
#include "serving/registry.hpp"
#include "serving/request.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string_view>
#include <thread>
#include <vector>

namespace bitgb::serving {

struct ServerOptions {
  /// Serving workers (0 = hardware width).
  int workers = 0;
  /// Bounded queue depth; admission sheds beyond it.
  std::size_t queue_capacity = 1024;
  /// Widest wave a worker may form (clamped to
  /// FrontierBatch::kMaxBatch; 1 = unbatched, the ablation baseline).
  int max_batch = FrontierBatch::kMaxBatch;
  /// Per-worker execution descriptor.  Serial thread budget by
  /// default — a serving worker's parallelism axis is the batch, and
  /// the worker pool supplies the concurrency.
  Context context = Context{}.with_threads(1);
  /// Deadline applied by submit() when the caller passes none
  /// (zero = requests without an explicit deadline never expire).
  std::chrono::milliseconds default_deadline{0};
  /// Per-slot circuit-breaker tuning: trip_after consecutive internal
  /// errors on one graph slot open its breaker for `cooldown`, during
  /// which its queries shed kShedCircuitOpen instead of executing.
  /// trip_after <= 0 disables the breaker.  The breaker STATE lives in
  /// the slot (shared by every server on the registry); this policy is
  /// this server's tolerance.
  CircuitBreakerPolicy breaker{};
};

/// Wave-width histogram buckets: [1] [2] [3-4] [5-8] [9-16] [17-32]
/// [33-64] — power-of-two bands up to FrontierBatch::kMaxBatch.
inline constexpr std::size_t kWaveHistBuckets = 7;

/// Bucket index for an executed wave width (1..64).
[[nodiscard]] constexpr std::size_t wave_hist_bucket(int width) {
  std::size_t b = 0;
  for (int top = 1; top < width; top *= 2) ++b;
  return b < kWaveHistBuckets ? b : kWaveHistBuckets - 1;
}

/// Monotonic counters, snapshot via Server::stats().  Conservation
/// invariant — every admitted query resolves exactly one way, so once
/// the server is drained:
///
///   submitted == completed + failed + shed_queue_full + shed_deadline
///              + shed_bad_graph + shed_shutdown + shed_circuit_open
///
/// (accounted() computes the right-hand side).  The invariant holds
/// under fault injection too: a contained wave failure moves its
/// requests from completed to failed, never loses them.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;        ///< answered kOk
  std::uint64_t failed = 0;           ///< answered kInternalError (their
                                      ///< wave threw; contained)
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_bad_graph = 0;   ///< unknown graph name at submit
  std::uint64_t shed_shutdown = 0;    ///< submitted after shutdown()
  std::uint64_t shed_circuit_open = 0;  ///< slot's breaker was open
  std::uint64_t waves = 0;            ///< execution waves run
  std::uint64_t batched_queries = 0;  ///< kOk queries summed over waves
  std::uint64_t widest_wave = 0;

  /// Per-kind admission/completion counters, indexed by QueryKind.
  std::array<std::uint64_t, kNumQueryKinds> submitted_by_kind{};
  std::array<std::uint64_t, kNumQueryKinds> completed_by_kind{};

  /// Executed wave widths, bucketed (see wave_hist_bucket) — the wave
  /// rule's observable decision record (a request run alone is a
  /// width-1 wave).
  std::array<std::uint64_t, kWaveHistBuckets> wave_width_hist{};

  /// Registry durability counters, mirrored from the backing
  /// GraphRegistry at stats() time (shared by every Server on that
  /// registry).  They count REGISTRY events, not queries, so they are
  /// deliberately outside the accounted() conservation invariant.
  std::uint64_t registry_dedup_hits = 0;  ///< re-adds that reused a graph
  std::uint64_t graphs_recovered = 0;     ///< manifest entries recovered
  std::uint64_t graphs_quarantined = 0;   ///< entries missing/quarantined

  /// Everything submitted queries can resolve to — equals `submitted`
  /// once the server is drained (the conservation invariant the chaos
  /// suite asserts under faults, churn, and shutdown).
  [[nodiscard]] std::uint64_t accounted() const {
    return completed + failed + shed_queue_full + shed_deadline +
           shed_bad_graph + shed_shutdown + shed_circuit_open;
  }

  /// Mean queries per executed wave — the auto-batching payoff metric.
  [[nodiscard]] double mean_wave_width() const {
    return waves == 0 ? 0.0
                      : static_cast<double>(batched_queries) /
                            static_cast<double>(waves);
  }
};

class Server {
 public:
  /// Serve every graph registered in `registry` (which must outlive the
  /// Server; add/remove stay allowed while serving).  Starts the
  /// workers immediately.
  Server(const GraphRegistry& registry, ServerOptions opts = {});

  /// Drains and joins (shutdown()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit one query against a named graph.  The future is always
  /// eventually fulfilled: kOk from a worker, kShedQueueFull
  /// immediately when the queue is at capacity, kShedShutdown
  /// immediately when shutdown() already closed admission,
  /// kShedDeadline if it expires before or during execution,
  /// kShedCircuitOpen if its slot's breaker is open, kInternalError if
  /// its wave threw (contained), or kBadGraph immediately when no
  /// graph is registered under `graph`.  Throws std::invalid_argument
  /// on an out-of-range source for the traversal kinds (whole-graph
  /// kinds ignore `source`).
  std::future<Reply> submit(std::string_view graph, QueryKind kind,
                            vidx_t source = 0);
  std::future<Reply> submit(std::string_view graph, QueryKind kind,
                            vidx_t source, clock::time_point deadline);

  /// PageRank with explicit params (carried in the request).  Params
  /// are validated at the door — NaN or out-of-[0,1) damping, a
  /// non-positive iteration budget, or a non-positive tolerance throw
  /// std::invalid_argument BEFORE admission, so a malformed request
  /// can never poison a worker or spin an unbounded iteration.
  std::future<Reply> submit_pagerank(
      std::string_view graph, const algo::PageRankParams& params = {},
      clock::time_point deadline = clock::time_point::max());

  /// Stop admission, serve everything already queued, join the
  /// workers.  Idempotent.  submit() after shutdown is defined
  /// behaviour, not a race: the future resolves immediately with
  /// Status::kShedShutdown — it never hangs, and the conservation
  /// invariant still counts it.
  void shutdown() EXCLUDES(shutdown_mutex_);

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  [[nodiscard]] int worker_count() const EXCLUDES(shutdown_mutex_) {
    const MutexLock lk(shutdown_mutex_);
    return static_cast<int>(workers_.size());
  }
  [[nodiscard]] const ServerOptions& options() const { return opts_; }

 private:
  void worker_main();
  std::future<Reply> submit_resolved(GraphRef slot, QueryKind kind,
                                     vidx_t source,
                                     const algo::PageRankParams& params,
                                     clock::time_point deadline);
  [[nodiscard]] clock::time_point default_deadline_now() const;
  /// Fulfill a request admission refused (bad graph, queue full,
  /// shutdown) — its future resolves immediately.
  static void refuse(Request& r, Status status);

  const GraphRegistry& registry_;
  ServerOptions opts_;
  RequestQueue queue_;
  mutable Mutex shutdown_mutex_;
  /// The worker threads: spawned once under the lock at construction,
  /// joined exactly once under it at shutdown.
  std::vector<std::thread> workers_ GUARDED_BY(shutdown_mutex_);
  bool stopped_ GUARDED_BY(shutdown_mutex_) = false;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> shed_deadline_{0};
  std::atomic<std::uint64_t> shed_bad_graph_{0};
  std::atomic<std::uint64_t> shed_shutdown_{0};
  std::atomic<std::uint64_t> shed_circuit_open_{0};
  std::atomic<std::uint64_t> waves_{0};
  std::atomic<std::uint64_t> batched_queries_{0};
  std::atomic<std::uint64_t> widest_wave_{0};
  std::array<std::atomic<std::uint64_t>, kNumQueryKinds> submitted_by_kind_{};
  std::array<std::atomic<std::uint64_t>, kNumQueryKinds> completed_by_kind_{};
  std::array<std::atomic<std::uint64_t>, kWaveHistBuckets> wave_hist_{};
};

}  // namespace bitgb::serving
