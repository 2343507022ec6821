#include "serving/server.hpp"

#include "algorithms/workspace.hpp"
#include "platform/parallel.hpp"
#include "serving/batcher.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace bitgb::serving {

namespace {

bool is_traversal(QueryKind kind) {
  return kind == QueryKind::kBfs || kind == QueryKind::kReach;
}

/// Admission-time parameter gate for pagerank: a malformed request is
/// the CALLER's bug, so it throws at submit instead of poisoning a
/// worker.  Every comparison is written NaN-hostile: `!(x >= 0)` is
/// true for NaN where `x < 0` is not.
void validate_pagerank_params(const algo::PageRankParams& p) {
  if (!(p.alpha >= 0.0f) || p.alpha >= 1.0f) {
    throw std::invalid_argument(
        "serving: pagerank damping alpha must be in [0, 1), got " +
        std::to_string(p.alpha));
  }
  if (p.max_iterations <= 0) {
    throw std::invalid_argument(
        "serving: pagerank max_iterations must be positive, got " +
        std::to_string(p.max_iterations));
  }
  if (!(p.epsilon > 0.0)) {
    throw std::invalid_argument(
        "serving: pagerank epsilon must be positive, got " +
        std::to_string(p.epsilon));
  }
}

}  // namespace

Server::Server(const GraphRegistry& registry, ServerOptions opts)
    : registry_(registry), opts_(opts), queue_(opts.queue_capacity) {
  opts_.max_batch =
      std::clamp(opts_.max_batch, 1, FrontierBatch::kMaxBatch);
  const int n = opts_.workers <= 0 ? hardware_width()
                                   : std::min(opts_.workers, kMaxWorkerWidth);
  // Construction is single-threaded, but workers_ is guarded by the
  // shutdown mutex (its other writer is the joining shutdown()), so the
  // spawn loop holds it too — uncontended here, and the static analysis
  // gets one consistent story for the container.
  const MutexLock lk(shutdown_mutex_);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

Server::~Server() { shutdown(); }

clock::time_point Server::default_deadline_now() const {
  return opts_.default_deadline.count() > 0
             ? clock::now() + opts_.default_deadline
             : clock::time_point::max();
}

void Server::refuse(Request& r, Status status) {
  const clock::time_point now = clock::now();
  r.promise.set_value(make_reply(r, status, now, now));
}

std::future<Reply> Server::submit(std::string_view graph, QueryKind kind,
                                  vidx_t source) {
  return submit(graph, kind, source, default_deadline_now());
}

std::future<Reply> Server::submit(std::string_view graph, QueryKind kind,
                                  vidx_t source, clock::time_point deadline) {
  return submit_resolved(registry_.lookup(graph), kind, source, {}, deadline);
}

std::future<Reply> Server::submit_pagerank(std::string_view graph,
                                           const algo::PageRankParams& params,
                                           clock::time_point deadline) {
  validate_pagerank_params(params);
  return submit_resolved(registry_.lookup(graph), QueryKind::kPagerank, 0,
                         params, deadline);
}

std::future<Reply> Server::submit_resolved(GraphRef slot, QueryKind kind,
                                           vidx_t source,
                                           const algo::PageRankParams& params,
                                           clock::time_point deadline) {
  if (slot != nullptr && is_traversal(kind) &&
      (source < 0 || source >= slot->graph().num_vertices())) {
    throw std::invalid_argument(
        "serving: source " + std::to_string(source) + " out of range [0, " +
        std::to_string(slot->graph().num_vertices()) + ") on graph '" +
        slot->name() + "'");
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  submitted_by_kind_[static_cast<std::size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);

  Request r;
  r.kind = kind;
  r.source = source;
  r.slot = std::move(slot);
  r.pagerank = params;
  r.deadline = deadline;
  r.submitted = clock::now();
  std::future<Reply> fut = r.promise.get_future();
  if (r.slot == nullptr) {
    // Unknown name: accounted, and the future resolves immediately —
    // a routing miss is an answer, not an exception, because the
    // registry may legitimately have changed between the caller's
    // lookup and this submit.
    shed_bad_graph_.fetch_add(1, std::memory_order_relaxed);
    refuse(r, Status::kBadGraph);
    return fut;
  }
  const PushOutcome push = queue_.try_push(std::move(r));
  if (push != PushOutcome::kAccepted) {
    // Shed at the door — with the honest reason: kFull is overload
    // (queue at capacity), kClosed is a submit after shutdown() closed
    // admission.  Either way try_push left the request intact, so the
    // promise is still ours to fulfill: the future always resolves,
    // never hangs.
    const bool closed = push == PushOutcome::kClosed;
    (closed ? shed_shutdown_ : shed_queue_full_)
        .fetch_add(1, std::memory_order_relaxed);
    refuse(r, closed ? Status::kShedShutdown : Status::kShedQueueFull);
  }
  return fut;
}

void Server::worker_main() {
  // The long-lived per-worker execution state: one descriptor, one
  // scratch arena.  Steady state allocates nothing on the wave path.
  const Context ctx = opts_.context;
  algo::Workspace ws;
  std::vector<Request> batch;
  std::vector<int> wave_widths;
  batch.reserve(static_cast<std::size_t>(opts_.max_batch));
  wave_widths.reserve(static_cast<std::size_t>(opts_.max_batch));
  while (queue_.pop_batch(batch, opts_.max_batch) > 0) {
    const QueryKind kind = batch.front().kind;
    wave_widths.clear();
    BatchOutcome outcome;
    try {
      serve_batch(ctx, opts_.breaker, batch, ws, wave_widths, outcome);
    } catch (const std::exception& e) {
      // Last-ditch containment.  serve_batch contains wave failures
      // itself; reaching here means its own scratch setup threw (e.g.
      // OOM sizing the partition vector).  Everything already resolved
      // is already counted in `outcome`; whatever is still pending gets
      // kInternalError now — the worker survives, no promise is ever
      // abandoned.
      outcome.failed += fail_unfulfilled(batch, e.what());
    } catch (...) {
      outcome.failed += fail_unfulfilled(batch, "unknown exception");
    }
    completed_.fetch_add(static_cast<std::uint64_t>(outcome.executed),
                         std::memory_order_relaxed);
    completed_by_kind_[static_cast<std::size_t>(kind)].fetch_add(
        static_cast<std::uint64_t>(outcome.executed),
        std::memory_order_relaxed);
    shed_deadline_.fetch_add(static_cast<std::uint64_t>(outcome.shed_deadline),
                             std::memory_order_relaxed);
    failed_.fetch_add(static_cast<std::uint64_t>(outcome.failed),
                      std::memory_order_relaxed);
    shed_circuit_open_.fetch_add(
        static_cast<std::uint64_t>(outcome.shed_circuit),
        std::memory_order_relaxed);
    std::uint64_t widest = 0;
    for (const int w : wave_widths) {
      const auto width = static_cast<std::uint64_t>(w);
      waves_.fetch_add(1, std::memory_order_relaxed);
      batched_queries_.fetch_add(width, std::memory_order_relaxed);
      wave_hist_[wave_hist_bucket(w)].fetch_add(1, std::memory_order_relaxed);
      widest = std::max(widest, width);
    }
    std::uint64_t prev = widest_wave_.load(std::memory_order_relaxed);
    while (prev < widest && !widest_wave_.compare_exchange_weak(
                                prev, widest, std::memory_order_relaxed)) {
    }
  }
}

void Server::shutdown() {
  // Serialized so an explicit shutdown() and the destructor's cannot
  // race on the joins.
  const MutexLock lk(shutdown_mutex_);
  if (stopped_) return;
  queue_.close();
  for (auto& w : workers_) w.join();
  stopped_ = true;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.shed_bad_graph = shed_bad_graph_.load(std::memory_order_relaxed);
  s.shed_shutdown = shed_shutdown_.load(std::memory_order_relaxed);
  s.shed_circuit_open = shed_circuit_open_.load(std::memory_order_relaxed);
  s.waves = waves_.load(std::memory_order_relaxed);
  s.batched_queries = batched_queries_.load(std::memory_order_relaxed);
  s.widest_wave = widest_wave_.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
    s.submitted_by_kind[k] =
        submitted_by_kind_[k].load(std::memory_order_relaxed);
    s.completed_by_kind[k] =
        completed_by_kind_[k].load(std::memory_order_relaxed);
  }
  for (std::size_t b = 0; b < kWaveHistBuckets; ++b) {
    s.wave_width_hist[b] = wave_hist_[b].load(std::memory_order_relaxed);
  }
  s.registry_dedup_hits = registry_.dedup_hits();
  s.graphs_recovered = registry_.recovered_count();
  s.graphs_quarantined = registry_.quarantined_count();
  return s;
}

}  // namespace bitgb::serving
