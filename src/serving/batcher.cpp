#include "serving/batcher.hpp"

#include "algorithms/bfs.hpp"
#include "algorithms/msbfs.hpp"
#include "algorithms/pagerank.hpp"
#include "core/frontier_batch.hpp"
#include "platform/cancel.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <exception>
#include <utility>

namespace bitgb::serving {

namespace {

using RequestIt = std::vector<Request*>::iterator;

/// Fulfill a promise that MAY already be satisfied (a wave that threw
/// partway fulfilled a prefix of its requests first).  Returns whether
/// this call did the fulfilling.  Never throws: promise_already_
/// satisfied is expected here, and anything else would mean the promise
/// has no shared state — either way the right move is to move on.
bool try_fulfill(Request& r, Reply&& reply) noexcept {
  try {
    r.promise.set_value(std::move(reply));
    return true;
  } catch (const std::future_error&) {
    return false;
  }
}

/// Fulfill one request with a shed status (no result payload).
/// `iterations` > 0 records a cooperatively-aborted wave's progress.
void shed(Request& r, Status status, clock::time_point now,
          int iterations = 0) {
  Reply reply = make_reply(r, status, now, now);
  reply.iterations = iterations;
  try_fulfill(r, std::move(reply));
}

/// Fulfill one request with kInternalError carrying the contained
/// exception's text.  Returns whether the promise was still pending
/// (false = the wave fulfilled it kOk before throwing).
bool fulfill_error(Request& r, const char* what, clock::time_point now) {
  Reply reply = make_reply(r, Status::kInternalError, now, now);
  reply.error = what != nullptr ? what : "unknown exception";
  return try_fulfill(r, std::move(reply));
}

/// The latest deadline aboard [first, last): the wave keeps running
/// while ANY rider still wants the answer, so the per-wave cancel
/// token arms with the maximum.  time_point::max() = nobody expires.
clock::time_point wave_deadline(RequestIt first, RequestIt last) {
  clock::time_point latest = clock::time_point::min();
  for (auto it = first; it != last; ++it) {
    latest = std::max(latest, (*it)->deadline);
  }
  return latest;
}

/// How one wave resolved its requests (kOk vs mid-flight shed).
struct WaveServed {
  int ok = 0;
  int shed = 0;
};

/// Single-request traversal path: the plain single-source algorithms —
/// what the wave rule picks below the slot's break-even width, and the
/// execution model of the unbatched (max_batch = 1) ablation.  The
/// request's own start stamp also times the run into the slot's
/// single-run mean.
WaveServed serve_single_traversal(const Context& ctx, Request& r,
                                  algo::Workspace& ws) {
  CancelToken token(r.deadline);
  const Context wctx = r.deadline < clock::time_point::max()
                           ? ctx.with_cancel(&token)
                           : ctx;
  const gb::Graph& g = r.slot->graph();
  auto& out = ws.slot<algo::BfsResult>("serving.bfs_out");
  const clock::time_point started = clock::now();
  algo::bfs(wctx, g, {r.source}, ws, out);
  const clock::time_point done = clock::now();
  if (token.cancelled()) {
    shed(r, Status::kShedDeadline, done);
    return {0, 1};
  }
  r.slot->traversal_cost(r.kind).single.add(done - started);

  Reply reply = make_reply(r, Status::kOk, started, done, 1);
  if (r.kind == QueryKind::kBfs) {
    reply.levels = out.levels;
  } else {
    reply.reached.resize(out.levels.size());
    for (std::size_t v = 0; v < out.levels.size(); ++v) {
      reply.reached[v] =
          static_cast<std::uint8_t>(out.levels[v] != algo::kUnreached);
    }
  }
  try_fulfill(r, std::move(reply));
  return {1, 0};
}

/// One same-graph traversal wave: every live source rides one batched
/// msbfs / batched_reach sweep under a shared cancel token armed with
/// the wave's LATEST deadline — the wave aborts mid-flight only once
/// every rider has expired, so cancellation never discards work
/// somebody is still waiting on.  The sweep is timed into the slot's
/// wave mean.
WaveServed serve_traversal_wave(const Context& ctx, RequestIt first,
                                RequestIt last, algo::Workspace& ws) {
  const auto width = static_cast<int>(last - first);
  const clock::time_point latest = wave_deadline(first, last);
  CancelToken token(latest);
  const Context wctx =
      latest < clock::time_point::max() ? ctx.with_cancel(&token) : ctx;

  const GraphSlot& slot = *(*first)->slot;
  auto& sources = ws.slot<std::vector<vidx_t>>("serving.sources");
  sources.clear();
  for (auto it = first; it != last; ++it) sources.push_back((*it)->source);

  const QueryKind kind = (*first)->kind;
  auto& levels = ws.slot<algo::MsBfsResult>("serving.msbfs_out");
  const FrontierBatch* reached = nullptr;
  const clock::time_point started = clock::now();
  if (kind == QueryKind::kBfs) {
    auto& params = ws.slot<algo::MsBfsParams>("serving.msbfs_params");
    params.sources = sources;
    algo::msbfs(wctx, slot.graph(), params, ws, levels);
  } else {
    reached = &algo::batched_reach(wctx, slot.graph(), sources, ws);
  }
  const clock::time_point done = clock::now();
  if (token.cancelled()) {
    for (auto it = first; it != last; ++it) {
      shed(**it, Status::kShedDeadline, done);
    }
    return {0, width};
  }
  slot.traversal_cost(kind).wave.add(done - started);

  for (auto it = first; it != last; ++it) {
    Request& r = **it;
    Reply reply = make_reply(r, Status::kOk, started, done, width);
    const auto column = static_cast<int>(it - first);
    if (reached == nullptr) {
      algo::scatter_levels(levels, column, reply.levels);
    } else {
      algo::scatter_reached(*reached, column, reply.reached);
    }
    try_fulfill(r, std::move(reply));
  }
  return {width, 0};
}

/// One same-graph components wave: every request in the partition reads
/// the slot's memoized labelling (the first ever reader computes it).
/// The memo is computed with the cancel token STRIPPED: the memo caches
/// whatever the compute produced, and a partially-labelled graph must
/// never become the registration's answer.  Fault injection stays armed
/// — a throwing memo attempt is retryable (the slot treats it as not
/// having run), so a poisoned attempt is never cached either.
WaveServed serve_components_wave(const Context& ctx, RequestIt first,
                                 RequestIt last, algo::Workspace& ws) {
  const clock::time_point started = clock::now();
  const auto width = static_cast<int>(last - first);
  const GraphSlot& slot = *(*first)->slot;
  const algo::BatchedCcResult& cc =
      slot.components(ctx.with_cancel(nullptr), ws);
  const clock::time_point done = clock::now();
  for (auto it = first; it != last; ++it) {
    Request& r = **it;
    Reply reply = make_reply(r, Status::kOk, started, done, width);
    reply.component = cc.component;
    reply.iterations = cc.waves;
    try_fulfill(r, std::move(reply));
  }
  return {width, 0};
}

/// PageRank runs per-request: the params travelled in the request, the
/// scratch is the worker's own Workspace.  An expired request aborts at
/// the next iteration boundary; the shed reply's `iterations` records
/// how many iterations ran before the token fired (< the requested
/// max — the proof the query stopped burning its budget).
WaveServed serve_pagerank(const Context& ctx, Request& r,
                          algo::Workspace& ws) {
  const clock::time_point started = clock::now();
  CancelToken token(r.deadline);
  const Context wctx = r.deadline < clock::time_point::max()
                           ? ctx.with_cancel(&token)
                           : ctx;
  const gb::Graph& g = r.slot->graph();
  auto& out = ws.slot<algo::PageRankResult>("serving.pagerank_out");
  algo::pagerank(wctx, g, r.pagerank, ws, out);
  if (token.cancelled()) {
    shed(r, Status::kShedDeadline, clock::now(), out.iterations);
    return {0, 1};
  }

  Reply reply = make_reply(r, Status::kOk, started, clock::now(), 1);
  reply.rank = out.rank;
  reply.iterations = out.iterations;
  try_fulfill(r, std::move(reply));
  return {1, 0};
}

}  // namespace

Reply make_reply(const Request& r, Status status, clock::time_point started,
                 clock::time_point completed, int width) {
  Reply reply;
  reply.status = status;
  reply.kind = r.kind;
  reply.source = r.source;
  if (r.slot) {
    reply.graph = r.slot->name();
    reply.graph_generation = r.slot->generation();
  }
  reply.batch_width = width;
  reply.queue_ms =
      std::chrono::duration<double, std::milli>(started - r.submitted).count();
  reply.completed = completed;
  return reply;
}

int fail_unfulfilled(std::vector<Request>& batch, const char* what) noexcept {
  int filled = 0;
  for (auto& r : batch) {
    if (fulfill_error(r, what, clock::now())) ++filled;
  }
  return filled;
}

void serve_batch(const Context& ctx, const CircuitBreakerPolicy& breaker,
                 std::vector<Request>& batch, algo::Workspace& ws,
                 std::vector<int>& wave_widths, BatchOutcome& outcome) {
  if (batch.empty()) return;
  assert(batch.size() <=
         static_cast<std::size_t>(FrontierBatch::kMaxBatch));

  // Deadline gate: anything that expired while queued is shed without
  // touching the graph — under overload the wave stays full of queries
  // someone is still waiting for.
  const clock::time_point now = clock::now();
  auto& live = ws.slot<std::vector<Request*>>("serving.live");
  live.clear();
  for (auto& r : batch) {
    if (r.deadline < now) {
      shed(r, Status::kShedDeadline, now);
      ++outcome.shed_deadline;
    } else {
      live.push_back(&r);
    }
  }
  if (live.empty()) return;

  // Resolve one wave's WaveServed into the outcome + breaker: a wave
  // with at least one kOk answer is health evidence (close the
  // breaker) and is recorded as a wave; a fully-shed wave judged
  // nothing (release any probe).
  auto settle_wave = [&](const WaveServed& served, CircuitBreaker& cb,
                         int width) {
    outcome.executed += served.ok;
    outcome.shed_deadline += served.shed;
    if (served.ok > 0) {
      cb.record_success();
      wave_widths.push_back(width);
    } else {
      cb.abandon_probe();
    }
  };
  // A wave threw: contain it.  Every request of the wave that was not
  // already fulfilled kOk before the throw resolves kInternalError; the
  // breaker records the failure.
  auto settle_throw = [&](RequestIt first, RequestIt last,
                          CircuitBreaker& cb, const char* what) {
    const clock::time_point failed_at = clock::now();
    int errs = 0;
    for (auto it = first; it != last; ++it) {
      if (fulfill_error(**it, what, failed_at)) ++errs;
    }
    outcome.failed += errs;
    outcome.executed += static_cast<int>(last - first) - errs;
    cb.record_failure(breaker, failed_at);
  };
  // The one containment path: `serve` runs the failure domain
  // [first, last) and whatever it throws stays inside that domain.
  auto contain = [&](RequestIt first, RequestIt last, CircuitBreaker& cb,
                     auto&& serve) {
    try {
      settle_wave(serve(), cb, static_cast<int>(last - first));
    } catch (const std::exception& e) {
      settle_throw(first, last, cb, e.what());
    } catch (...) {
      settle_throw(first, last, cb, "unknown exception");
    }
  };

  // Partition by graph slot: a popped run is same-kind but may span
  // registered graphs, and a wave can only sweep one adjacency.  FIFO
  // order within each partition is preserved (stable partitioning by
  // first-seen slot), so a graph's own queries still serve in order.
  const QueryKind kind = live.front()->kind;
  auto begin = live.begin();
  while (begin != live.end()) {
    const GraphSlot* slot = (*begin)->slot.get();
    auto end = std::stable_partition(
        begin, live.end(),
        [slot](const Request* r) { return r->slot.get() == slot; });
    const auto width = static_cast<int>(end - begin);
    CircuitBreaker& cb = slot->breaker();

    // Circuit gate: an open breaker sheds the whole partition without
    // touching the graph — the fast-fail that keeps a poisoned slot
    // from eating worker time and caller deadlines.  allow() may claim
    // the half-open probe; every path below resolves it.
    if (!cb.allow(breaker, clock::now())) {
      const clock::time_point shed_at = clock::now();
      for (auto it = begin; it != end; ++it) {
        shed(**it, Status::kShedCircuitOpen, shed_at);
      }
      outcome.shed_circuit += width;
      begin = end;
      continue;
    }

    // Fault-injection wave hook (deterministic induced delay): placed
    // AFTER the deadline gate so an injected stall exercises the
    // mid-flight cancellation path, not the pre-wave shed.
    if (ctx.fault != nullptr) ctx.fault->on_wave();

    if (kind == QueryKind::kComponents) {
      contain(begin, end, cb,
              [&] { return serve_components_wave(ctx, begin, end, ws); });
    } else if (kind != QueryKind::kPagerank &&
               slot->traversal_cost(kind).wave_pays(width)) {
      contain(begin, end, cb,
              [&] { return serve_traversal_wave(ctx, begin, end, ws); });
    } else {
      // One by one: pagerank (params differ per request, so nothing
      // coalesces), or a traversal run the wave rule says is cheaper
      // single.  Each request is its own width-1 wave and its own
      // failure domain (one throwing run does not fail its partition
      // neighbours), and the breaker re-gates each: K failures here
      // trip it mid-partition and the remainder sheds fast.
      for (auto it = begin; it != end; ++it) {
        if (it != begin && !cb.allow(breaker, clock::now())) {
          shed(**it, Status::kShedCircuitOpen, clock::now());
          ++outcome.shed_circuit;
          continue;
        }
        contain(it, it + 1, cb, [&] {
          return kind == QueryKind::kPagerank
                     ? serve_pagerank(ctx, **it, ws)
                     : serve_single_traversal(ctx, **it, ws);
        });
      }
    }
    begin = end;
  }
}

}  // namespace bitgb::serving
