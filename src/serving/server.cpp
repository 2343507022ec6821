#include "serving/server.hpp"

#include "algorithms/workspace.hpp"
#include "platform/parallel.hpp"
#include "serving/batcher.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
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
  ledger_.admit(kind);

  Request r;
  r.kind = kind;
  r.source = source;
  r.slot = std::move(slot);
  r.pagerank = params;
  r.deadline = deadline;
  r.submitted = clock::now();
  std::future<Reply> fut = r.promise.get_future();
  // An unknown name is an answer, not an exception: the registry may
  // legitimately have changed between the caller's lookup and this
  // submit.  A refused push is shed at the door with the honest reason
  // — kFull is overload, kClosed a submit after shutdown() closed
  // admission — and try_push left the request intact, so the promise
  // is still ours to fulfill: the future always resolves, never hangs.
  Status refused = Status::kBadGraph;
  if (r.slot != nullptr) {
    const PushOutcome push = queue_.try_push(std::move(r));
    if (push == PushOutcome::kAccepted) return fut;
    refused = push == PushOutcome::kClosed ? Status::kShedShutdown
                                           : Status::kShedQueueFull;
  }
  const clock::time_point now = clock::now();
  ledger_.resolve(r, make_reply(r, refused, now, now));
  return fut;
}

void Server::worker_main() {
  // The long-lived per-worker execution state: one descriptor, one
  // scratch arena.  Steady state allocates nothing on the wave path.
  const Context ctx = opts_.context;
  algo::Workspace ws;
  std::vector<Request> batch;
  batch.reserve(static_cast<std::size_t>(opts_.max_batch));
  while (queue_.pop_batch(batch, opts_.max_batch) > 0) {
    try {
      serve_batch(ctx, opts_.breaker, batch, ws, ledger_);
    } catch (const std::exception& e) {
      // Last-ditch containment.  serve_batch contains wave failures
      // itself; reaching here means its own scratch setup threw (e.g.
      // OOM sizing the partition vector).  Whatever is still pending
      // gets kInternalError now — the worker survives, no promise is
      // ever abandoned.
      fail_unfulfilled(batch, e.what(), ledger_);
    } catch (...) {
      fail_unfulfilled(batch, "unknown exception", ledger_);
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
  ServerStats s = ledger_.snapshot();
  s.registry_dedup_hits = registry_.dedup_hits();
  s.graphs_recovered = registry_.recovered_count();
  s.graphs_quarantined = registry_.quarantined_count();
  return s;
}

void Ledger::resolve(Request& r, Reply&& reply) {
  assert(!r.resolved);
  r.resolved = true;
  resolved_[static_cast<std::size_t>(r.kind)]
           [static_cast<std::size_t>(reply.status)]
               .fetch_add(1, std::memory_order_relaxed);
  r.promise.set_value(std::move(reply));
}

void Ledger::wave(int width) {
  const auto w = static_cast<std::uint64_t>(width);
  wave_hist_[wave_hist_bucket(width)].fetch_add(1, std::memory_order_relaxed);
  batched_queries_.fetch_add(w, std::memory_order_relaxed);
  std::uint64_t prev = widest_wave_.load(std::memory_order_relaxed);
  while (prev < w && !widest_wave_.compare_exchange_weak(
                         prev, w, std::memory_order_relaxed)) {
  }
}

ServerStats Ledger::snapshot() const {
  // Each Status's ServerStats field, in Status order.
  static constexpr std::uint64_t ServerStats::*kStatusField[] = {
      &ServerStats::completed,     &ServerStats::shed_queue_full,
      &ServerStats::shed_deadline, &ServerStats::shed_bad_graph,
      &ServerStats::shed_shutdown, &ServerStats::shed_circuit_open,
      &ServerStats::failed};
  static_assert(std::size(kStatusField) == kNumStatuses,
                "kStatusField out of sync with Status");
  ServerStats s;
  for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
    s.submitted_by_kind[k] = admitted_[k].load(std::memory_order_relaxed);
    s.submitted += s.submitted_by_kind[k];
    for (std::size_t st = 0; st < kNumStatuses; ++st) {
      const std::uint64_t n = resolved_[k][st].load(std::memory_order_relaxed);
      s.*kStatusField[st] += n;
      if (st == static_cast<std::size_t>(Status::kOk)) {
        s.completed_by_kind[k] = n;
      }
    }
  }
  for (std::size_t b = 0; b < kWaveHistBuckets; ++b) {
    s.wave_width_hist[b] = wave_hist_[b].load(std::memory_order_relaxed);
    s.waves += s.wave_width_hist[b];
  }
  s.batched_queries = batched_queries_.load(std::memory_order_relaxed);
  s.widest_wave = widest_wave_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace bitgb::serving
