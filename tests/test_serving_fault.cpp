// Fault containment, cooperative cancellation, and the circuit breaker
// (ctest label "serving"; runs in the TSan lane with the rest of the
// serving core).  Deterministic counterpart to the randomized
// serving-stress storm: every fault here is scheduled exactly — a
// one-shot Nth-call trigger, a pre-fired cancel token, a breaker driven
// through its whole state machine — so each containment path is pinned
// by itself, not by seed luck.
//
// The headline properties:
//   * a throwing wave (kernel fault or allocator exhaustion) fulfills
//     exactly its own requests with kInternalError and the worker
//     survives — and the queries served AFTER the fault are
//     bit-identical to serial oracle runs (a contained fault leaves no
//     residue in the worker's Workspace);
//   * an expired deadline aborts a PageRank wave mid-flight: the shed
//     reply's iteration counter is >= 1 and < the requested maximum —
//     the proof the wave stopped burning its budget instead of
//     finishing and discarding;
//   * the per-slot circuit breaker trips after K consecutive internal
//     errors, sheds fast while open, and re-closes through the
//     half-open probe;
//   * submit() after shutdown() is defined: immediate kShedShutdown,
//     never a hang;
//   * malformed PageRank params throw std::invalid_argument at the
//     door.
#include "serving/server.hpp"

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "platform/cancel.hpp"
#include "platform/fault_injector.hpp"
#include "serving/registry.hpp"
#include "sparse/generators.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

namespace bitgb {
namespace {

using namespace std::chrono_literals;
using serving::CircuitBreaker;
using serving::CircuitBreakerPolicy;
using serving::GraphRegistry;
using serving::QueryKind;
using serving::Reply;
using serving::Server;
using serving::ServerOptions;
using serving::Status;

gb::Graph fault_graph(vidx_t n = 512, std::uint64_t seed = 99) {
  gb::GraphOptions opts;
  opts.tile_dim = 8;
  gb::Graph g = gb::Graph::from_coo(gen_random(n, 4 * n, seed), opts);
  g.prewarm(gb::kBitFormats);
  return g;
}

/// Serving one graph is a registry of one; kGraph names it.
constexpr const char* kGraph = "g";
struct OneGraph {
  GraphRegistry reg;
  const serving::GraphRef slot = reg.add(kGraph, fault_graph());
  const gb::Graph& g = slot->graph();
};

/// Single-worker server options: deterministic request ordering, so a
/// one-shot Nth-call fault lands on a known query.
ServerOptions one_worker(FaultInjector* injector = nullptr) {
  ServerOptions opts;
  opts.workers = 1;
  if (injector != nullptr) {
    opts.context = opts.context.with_fault(injector);
  }
  return opts;
}

// ---------------------------------------------------------------------
// CancelToken + algorithm-level cancellation semantics
// ---------------------------------------------------------------------

TEST(CancelToken, FlagAndDeadlineBothFire) {
  CancelToken none;
  EXPECT_FALSE(none.cancelled());
  none.request_cancel();
  EXPECT_TRUE(none.cancelled());
  EXPECT_TRUE(none.cancel_requested());

  CancelToken expired(CancelToken::clock::now() - 1ms);
  EXPECT_TRUE(expired.cancelled());
  EXPECT_FALSE(expired.cancel_requested());  // deadline, not the flag

  CancelToken future_tok(CancelToken::clock::now() + 1h);
  EXPECT_FALSE(future_tok.cancelled());
  future_tok.request_cancel();  // the flag can beat the deadline
  EXPECT_TRUE(future_tok.cancelled());
}

TEST(Cancellation, BfsReturnsValidPrefixNotGarbage) {
  const gb::Graph g = fault_graph();
  CancelToken fired;
  fired.request_cancel();
  const Context ctx = Context{}.with_threads(1).with_cancel(&fired);
  algo::Workspace ws;
  algo::BfsResult out;
  algo::bfs(ctx, g, {0}, ws, out);  // must return, not hang or throw
  // The prefix contract: buffers are fully sized and the source is
  // finalized even when the token fired before the first sweep.
  ASSERT_EQ(static_cast<std::size_t>(g.num_vertices()), out.levels.size());
  EXPECT_EQ(0, out.levels[0]);
  for (const auto lvl : out.levels) EXPECT_GE(lvl, algo::kUnreached);
}

TEST(Cancellation, PagerankStopsAtIterationBoundary) {
  const gb::Graph g = fault_graph();
  CancelToken fired;
  fired.request_cancel();
  const Context ctx = Context{}.with_threads(1).with_cancel(&fired);
  algo::Workspace ws;
  algo::PageRankResult out;
  algo::PageRankParams params;
  params.max_iterations = 50;
  algo::pagerank(ctx, g, params, ws, out);
  // Pre-fired token: not a single iteration may run.
  EXPECT_EQ(0, out.iterations);
  ASSERT_EQ(static_cast<std::size_t>(g.num_vertices()), out.rank.size());
}

// ---------------------------------------------------------------------
// FaultInjector determinism
// ---------------------------------------------------------------------

TEST(FaultInjector, SameSeedSameFaultSchedule) {
  FaultPlan plan;
  plan.seed = 42;
  plan.kernel_fault_rate = 0.3;
  FaultInjector a(plan), b(plan);
  constexpr int kCalls = 200;
  std::vector<bool> pattern_a, pattern_b;
  for (int i = 0; i < kCalls; ++i) {
    bool threw = false;
    try {
      a.on_kernel();
    } catch (const FaultInjectedError&) {
      threw = true;
    }
    pattern_a.push_back(threw);
  }
  for (int i = 0; i < kCalls; ++i) {
    bool threw = false;
    try {
      b.on_kernel();
    } catch (const FaultInjectedError&) {
      threw = true;
    }
    pattern_b.push_back(threw);
  }
  EXPECT_EQ(pattern_a, pattern_b);  // pure function of (seed, counter)
  EXPECT_EQ(a.faults_thrown(), b.faults_thrown());
  EXPECT_GT(a.faults_thrown(), 0u);          // 0.3 over 200 calls fires
  EXPECT_LT(a.faults_thrown(), kCalls);      // ... but not every call
}

TEST(FaultInjector, OneShotTriggersFireExactlyOnce) {
  FaultPlan plan;
  plan.bad_alloc_after = 3;
  FaultInjector inj(plan);
  inj.on_alloc();
  inj.on_alloc();
  EXPECT_THROW(inj.on_alloc(), std::bad_alloc);
  inj.on_alloc();  // the trigger is spent
  EXPECT_EQ(1u, inj.faults_thrown());
}

// ---------------------------------------------------------------------
// Containment: a throwing wave fails its requests, not the worker —
// and leaves no residue behind
// ---------------------------------------------------------------------

TEST(FaultContainment, KernelFaultIsContainedAndLaterQueriesAreBitIdentical) {
  const OneGraph served;
  const gb::Graph& g = served.g;
  const vidx_t n = g.num_vertices();
  FaultPlan plan;
  plan.kernel_fault_after = 1;  // the very first level boundary throws
  FaultInjector injector(plan);
  Server server(served.reg, one_worker(&injector));

  auto poisoned = server.submit(kGraph, QueryKind::kBfs, 7);
  const Reply dead = poisoned.get();
  EXPECT_EQ(Status::kInternalError, dead.status);
  EXPECT_FALSE(dead.error.empty());

  // The worker must have survived, and the queries after the fault must
  // be BIT-IDENTICAL to serial oracle runs on a fresh workspace — the
  // contained fault left nothing behind in the worker's scratch.
  const Context oracle_ctx = Context{}.with_threads(1);
  for (const vidx_t src : {vidx_t{0}, vidx_t{7}, n - 1}) {
    const Reply r = server.submit(kGraph, QueryKind::kBfs, src).get();
    ASSERT_EQ(Status::kOk, r.status);
    const algo::BfsResult gold = algo::bfs(oracle_ctx, g, {src});
    EXPECT_EQ(gold.levels, r.levels) << "post-fault divergence from src "
                                     << src;
  }
  const Reply pr = server.submit_pagerank(kGraph).get();
  ASSERT_EQ(Status::kOk, pr.status);
  const algo::PageRankResult pr_gold = algo::pagerank(oracle_ctx, g, {});
  EXPECT_EQ(pr_gold.rank, pr.rank);  // bit-identical, not approximately
  EXPECT_EQ(pr_gold.iterations, pr.iterations);

  server.shutdown();
  const auto st = server.stats();
  EXPECT_EQ(1u, st.failed);
  EXPECT_EQ(4u, st.completed);
  EXPECT_EQ(st.submitted, st.accounted());
}

TEST(FaultContainment, AllocatorExhaustionIsContained) {
  const OneGraph served;
  FaultPlan plan;
  plan.bad_alloc_after = 1;  // the first buffer-sizing prologue throws
  FaultInjector injector(plan);
  Server server(served.reg, one_worker(&injector));

  const Reply dead = server.submit(kGraph, QueryKind::kBfs, 0).get();
  EXPECT_EQ(Status::kInternalError, dead.status);
  EXPECT_EQ("std::bad_alloc", dead.error);

  const Reply alive = server.submit(kGraph, QueryKind::kBfs, 0).get();
  EXPECT_EQ(Status::kOk, alive.status);

  server.shutdown();
  const auto st = server.stats();
  EXPECT_EQ(1u, st.failed);
  EXPECT_EQ(st.submitted, st.accounted());
}

TEST(FaultContainment, ThrowingComponentsMemoIsRetriedNotCached) {
  const OneGraph served;
  FaultPlan plan;
  plan.kernel_fault_after = 1;  // kills the FIRST memo attempt
  FaultInjector injector(plan);
  Server server(served.reg, one_worker(&injector));

  const Reply dead = server.submit(kGraph, QueryKind::kComponents).get();
  EXPECT_EQ(Status::kInternalError, dead.status);

  // The memo treats the throwing attempt as never-ran: the next
  // components query recomputes and must succeed with a full labelling.
  const Reply alive = server.submit(kGraph, QueryKind::kComponents).get();
  ASSERT_EQ(Status::kOk, alive.status);
  EXPECT_EQ(static_cast<std::size_t>(served.g.num_vertices()),
            alive.component.size());
}

// ---------------------------------------------------------------------
// Cooperative cancellation through the serving stack
// ---------------------------------------------------------------------

TEST(Cancellation, ExpiredPagerankAbortsMidFlight) {
  const OneGraph served;
  FaultPlan plan;
  plan.kernel_delay = 3ms;  // every iteration boundary stalls 3ms
  FaultInjector injector(plan);
  Server server(served.reg, one_worker(&injector));

  algo::PageRankParams params;
  params.max_iterations = 100;
  params.epsilon = std::numeric_limits<double>::min();  // never converges

  // With ~3ms per iteration and a ~30ms budget the token fires around
  // iteration 10 — far from both 0 (pre-wave shed) and 100 (ran to
  // completion).  Scheduling jitter can still land an attempt at the
  // pre-wave gate (iterations == 0), so retry for the mid-flight shape;
  // any single attempt must already satisfy the hard bounds.
  bool observed_midflight = false;
  for (int attempt = 0; attempt < 20 && !observed_midflight; ++attempt) {
    const auto deadline = serving::clock::now() + 30ms;
    const Reply r = server.submit_pagerank(kGraph, params, deadline).get();
    ASSERT_EQ(Status::kShedDeadline, r.status);
    ASSERT_LT(r.iterations, params.max_iterations)
        << "an expired 100-iteration pagerank must not run to completion";
    if (r.iterations >= 1) observed_midflight = true;
  }
  EXPECT_TRUE(observed_midflight)
      << "20 attempts never aborted mid-flight (iterations stayed 0)";
  server.shutdown();
  EXPECT_EQ(server.stats().submitted, server.stats().accounted());
}

// ---------------------------------------------------------------------
// Circuit breaker: the state machine in isolation, then through the
// server
// ---------------------------------------------------------------------

TEST(CircuitBreaker, TripsSshedsCoolsAndRecloses) {
  CircuitBreaker cb;
  const CircuitBreakerPolicy policy{/*trip_after=*/3,
                                    /*cooldown=*/std::chrono::milliseconds(50)};
  auto now = CircuitBreaker::clock::now();

  EXPECT_TRUE(cb.allow(policy, now));
  cb.record_failure(policy, now);
  cb.record_failure(policy, now);
  EXPECT_TRUE(cb.allow(policy, now));  // 2 < trip_after: still closed
  cb.record_failure(policy, now);      // third consecutive: trips
  EXPECT_TRUE(cb.is_open(now));
  EXPECT_EQ(1u, cb.trips());
  EXPECT_FALSE(cb.allow(policy, now));                  // open: shed fast
  EXPECT_FALSE(cb.allow(policy, now + 49ms));           // still cooling
  EXPECT_TRUE(cb.allow(policy, now + 51ms));            // half-open probe
  EXPECT_FALSE(cb.allow(policy, now + 51ms));           // ONE probe only
  cb.record_success();                                  // probe succeeded
  EXPECT_FALSE(cb.is_open(now + 51ms));
  EXPECT_TRUE(cb.allow(policy, now + 51ms));            // closed again
  EXPECT_EQ(0, cb.consecutive_failures());
}

TEST(CircuitBreaker, FailedProbeReopensAndAbandonedProbeReleases) {
  CircuitBreaker cb;
  const CircuitBreakerPolicy policy{/*trip_after=*/1,
                                    /*cooldown=*/std::chrono::milliseconds(50)};
  auto now = CircuitBreaker::clock::now();
  cb.record_failure(policy, now);  // trip_after = 1: trips immediately
  ASSERT_TRUE(cb.is_open(now));

  // Probe fails -> re-opens for another full cooldown.  trips() counts
  // closed->open transitions only: a failed probe extends the SAME
  // outage rather than starting a new one.
  ASSERT_TRUE(cb.allow(policy, now + 60ms));
  cb.record_failure(policy, now + 60ms);
  EXPECT_FALSE(cb.allow(policy, now + 60ms + 49ms));
  EXPECT_EQ(1u, cb.trips());

  // Probe abandoned (its wave was deadline-shed): the claim is
  // released and the NEXT caller gets to probe.
  ASSERT_TRUE(cb.allow(policy, now + 60ms + 51ms));
  cb.abandon_probe();
  EXPECT_TRUE(cb.allow(policy, now + 60ms + 51ms));
}

TEST(CircuitBreaker, DisabledPolicyNeverTrips) {
  CircuitBreaker cb;
  const CircuitBreakerPolicy off{/*trip_after=*/0,
                                 /*cooldown=*/std::chrono::milliseconds(1)};
  const auto now = CircuitBreaker::clock::now();
  for (int i = 0; i < 10; ++i) cb.record_failure(off, now);
  EXPECT_TRUE(cb.allow(off, now));
  EXPECT_FALSE(cb.is_open(now));
}

TEST(CircuitBreakerServing, SlotTripsThenRecoversAcrossServers) {
  GraphRegistry reg;
  reg.add("tenant", fault_graph());

  // Server A: every kernel boundary throws, breaker trips after 2.
  FaultPlan storm;
  storm.kernel_fault_rate = 1.0;
  FaultInjector injector(storm);
  ServerOptions opts_a = one_worker(&injector);
  opts_a.breaker.trip_after = 2;
  // Wide enough that server B's first query reliably lands inside the
  // cooldown even on a loaded CI machine.
  opts_a.breaker.cooldown = 250ms;
  Server a(reg, opts_a);

  EXPECT_EQ(Status::kInternalError,
            a.submit("tenant", QueryKind::kBfs, 0).get().status);
  EXPECT_EQ(Status::kInternalError,
            a.submit("tenant", QueryKind::kBfs, 1).get().status);
  // Tripped: the slot now sheds fast without touching the graph.
  EXPECT_EQ(Status::kShedCircuitOpen,
            a.submit("tenant", QueryKind::kBfs, 2).get().status);
  // Counters are posted by the worker after the promise resolves, so
  // join the workers (shutdown) before snapshotting.
  a.shutdown();
  const auto st_a = a.stats();
  EXPECT_EQ(2u, st_a.failed);
  EXPECT_EQ(1u, st_a.shed_circuit_open);
  EXPECT_EQ(st_a.submitted, st_a.accounted());

  // The breaker STATE lives in the slot, shared by every server on the
  // registry: a healthy server B sees the tripped slot, waits out the
  // cooldown, and its first query is the half-open probe that re-closes
  // it.
  ServerOptions opts_b = one_worker();
  opts_b.breaker = opts_a.breaker;
  Server b(reg, opts_b);
  EXPECT_EQ(Status::kShedCircuitOpen,
            b.submit("tenant", QueryKind::kBfs, 0).get().status);
  std::this_thread::sleep_for(300ms);
  EXPECT_EQ(Status::kOk,
            b.submit("tenant", QueryKind::kBfs, 0).get().status);  // probe
  EXPECT_EQ(Status::kOk,
            b.submit("tenant", QueryKind::kBfs, 1).get().status);  // closed
  b.shutdown();
  EXPECT_EQ(b.stats().submitted, b.stats().accounted());
}

// ---------------------------------------------------------------------
// Defined-shutdown and admission validation
// ---------------------------------------------------------------------

TEST(Shutdown, SubmitAfterShutdownResolvesImmediatelyWithShedShutdown) {
  const OneGraph served;
  Server server(served.reg, one_worker());
  server.shutdown();

  auto fut = server.submit(kGraph, QueryKind::kBfs, 0);
  ASSERT_EQ(std::future_status::ready, fut.wait_for(0s))
      << "a post-shutdown submit must resolve immediately, never hang";
  EXPECT_EQ(Status::kShedShutdown, fut.get().status);

  auto pr = server.submit_pagerank(kGraph);
  EXPECT_EQ(Status::kShedShutdown, pr.get().status);

  const auto st = server.stats();
  EXPECT_EQ(2u, st.shed_shutdown);
  EXPECT_EQ(st.submitted, st.accounted());
}

TEST(Validation, MalformedPagerankParamsThrowAtTheDoor) {
  const OneGraph served;
  Server server(served.reg, one_worker());

  algo::PageRankParams p;
  p.alpha = std::numeric_limits<value_t>::quiet_NaN();
  EXPECT_THROW(server.submit_pagerank(kGraph, p), std::invalid_argument);
  p.alpha = 1.0f;  // damping must stay strictly below 1
  EXPECT_THROW(server.submit_pagerank(kGraph, p), std::invalid_argument);
  p.alpha = -0.25f;
  EXPECT_THROW(server.submit_pagerank(kGraph, p), std::invalid_argument);

  p = {};
  p.max_iterations = 0;
  EXPECT_THROW(server.submit_pagerank(kGraph, p), std::invalid_argument);

  p = {};
  p.epsilon = 0.0;
  EXPECT_THROW(server.submit_pagerank(kGraph, p), std::invalid_argument);
  p.epsilon = -1e-9;
  EXPECT_THROW(server.submit_pagerank(kGraph, p), std::invalid_argument);

  // A rejected submit is never admitted: nothing to account for, and
  // the server still serves valid work.
  EXPECT_EQ(0u, server.stats().submitted);
  EXPECT_EQ(Status::kOk, server.submit_pagerank(kGraph).get().status);
}

}  // namespace
}  // namespace bitgb
