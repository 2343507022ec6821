// Serving-core tests (ctest label "serving"; runs in the TSan lane):
// the bounded queue's backpressure and batch-pop contract, the
// GraphRegistry's snapshot semantics, and the Server end to end —
// batched answers bit-identical to per-query serial runs under
// concurrent submission, the kPagerank/kComponents differentials over
// the oracle corpus (including memo invalidation across a registry
// re-add), deadline-shed accounting, queue-full shedding, bad-graph
// routing, the wave rule and its accounting, reply telemetry on every
// resolution path, and drain-on-shutdown.  Single-graph cases serve a
// registry of one.
#include "serving/server.hpp"

#include "algorithms/bfs.hpp"
#include "algorithms/cc.hpp"
#include "algorithms/pagerank.hpp"
#include "platform/fault_injector.hpp"
#include "serving/batcher.hpp"
#include "serving/queue.hpp"
#include "serving/registry.hpp"
#include "sparse/generators.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <numeric>
#include <random>
#include <string_view>
#include <thread>
#include <vector>

namespace bitgb {
namespace {

using namespace std::chrono_literals;
using serving::GraphRegistry;
using serving::PushOutcome;
using serving::QueryKind;
using serving::Reply;
using serving::Request;
using serving::RequestQueue;
using serving::Server;
using serving::ServerOptions;
using serving::Status;

gb::Graph serving_graph() {
  gb::GraphOptions opts;
  opts.tile_dim = 8;
  return gb::Graph::from_coo(gen_rmat(10, 4096, 7), opts);
}

/// Serving one graph is a registry of one: the graph lives in its slot
/// (prewarmed by add) and every submit names it.
constexpr const char* kGraph = "g";
struct OneGraph {
  GraphRegistry reg;
  const serving::GraphRef slot = reg.add(kGraph, serving_graph());
  const gb::Graph& g = slot->graph();
};

/// The queue tests' requests: each rides a slot with no graph and no
/// measured costs, so every traversal wave pays and pop_batch takes
/// whole runs (the queue never touches the graph).
Request make_request(QueryKind kind, vidx_t source) {
  static const serving::GraphRef unmeasured =
      std::make_shared<const serving::GraphSlot>("queue", 1, nullptr);
  Request r;
  r.kind = kind;
  r.source = source;
  r.slot = unmeasured;
  r.submitted = serving::clock::now();
  return r;
}

// ---------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------

TEST(RequestQueue, ShedsOnFullDeterministically) {
  RequestQueue q(4);
  std::vector<std::future<Reply>> futs;
  for (int i = 0; i < 4; ++i) {
    Request r = make_request(QueryKind::kBfs, i);
    futs.push_back(r.promise.get_future());
    EXPECT_EQ(PushOutcome::kAccepted, q.try_push(std::move(r)));
  }
  EXPECT_EQ(4u, q.depth());
  // The fifth push must be refused, and must leave the request (and
  // its promise) with the caller.
  Request fifth = make_request(QueryKind::kBfs, 4);
  auto fifth_fut = fifth.promise.get_future();
  EXPECT_EQ(PushOutcome::kFull, q.try_push(std::move(fifth)));
  EXPECT_EQ(4u, q.depth());
  fifth.promise.set_value(Reply{});  // still ours: fulfillable
  EXPECT_EQ(Status::kOk, fifth_fut.get().status);
}

TEST(RequestQueue, PopBatchCoalescesSameKindInFifoOrder) {
  RequestQueue q(64);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(PushOutcome::kAccepted, q.try_push(make_request(QueryKind::kBfs, i)));
  }
  std::vector<Request> batch;
  EXPECT_EQ(10u, q.pop_batch(batch, 64));
  ASSERT_EQ(10u, batch.size());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(i, batch[static_cast<std::size_t>(i)].source);
  for (auto& r : batch) r.promise.set_value(Reply{});
}

TEST(RequestQueue, PopBatchNeverMixesKinds) {
  RequestQueue q(64);
  ASSERT_EQ(PushOutcome::kAccepted, q.try_push(make_request(QueryKind::kBfs, 0)));
  ASSERT_EQ(PushOutcome::kAccepted, q.try_push(make_request(QueryKind::kReach, 1)));
  ASSERT_EQ(PushOutcome::kAccepted, q.try_push(make_request(QueryKind::kBfs, 2)));
  std::vector<Request> batch;
  // First pop: the BFS FIFO head is oldest -> both BFS requests, and
  // only those.
  EXPECT_EQ(2u, q.pop_batch(batch, 64));
  for (const auto& r : batch) EXPECT_EQ(QueryKind::kBfs, r.kind);
  for (auto& r : batch) r.promise.set_value(Reply{});
  EXPECT_EQ(1u, q.pop_batch(batch, 64));
  EXPECT_EQ(QueryKind::kReach, batch[0].kind);
  for (auto& r : batch) r.promise.set_value(Reply{});
}

TEST(RequestQueue, PopBatchHonorsMaxBatch) {
  RequestQueue q(64);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(PushOutcome::kAccepted, q.try_push(make_request(QueryKind::kBfs, i)));
  }
  std::vector<Request> batch;
  EXPECT_EQ(1u, q.pop_batch(batch, 1));  // unbatched ablation shape
  for (auto& r : batch) r.promise.set_value(Reply{});
  EXPECT_EQ(4u, q.pop_batch(batch, 4));
  for (auto& r : batch) r.promise.set_value(Reply{});
  EXPECT_EQ(5u, q.depth());
  while (q.pop_batch(batch, 64) > 0) {
    for (auto& r : batch) r.promise.set_value(Reply{});
    if (q.depth() == 0) break;
  }
}

TEST(RequestQueue, CloseDrainsThenReturnsZero) {
  RequestQueue q(8);
  ASSERT_EQ(PushOutcome::kAccepted, q.try_push(make_request(QueryKind::kBfs, 3)));
  q.close();
  EXPECT_EQ(PushOutcome::kClosed, q.try_push(make_request(QueryKind::kBfs, 4)));
  std::vector<Request> batch;
  EXPECT_EQ(1u, q.pop_batch(batch, 64));  // queued work still drains
  for (auto& r : batch) r.promise.set_value(Reply{});
  EXPECT_EQ(0u, q.pop_batch(batch, 64));  // then every pop sees "done"
}

// ---------------------------------------------------------------------
// Server end to end
// ---------------------------------------------------------------------

TEST(Serving, BatchedMatchesSerialUnderConcurrentSubmission) {
  const OneGraph served;
  const gb::Graph& g = served.g;
  constexpr int kQueries = 256;
  std::mt19937_64 rng(2026);
  std::uniform_int_distribution<vidx_t> pick(0, g.num_vertices() - 1);
  std::vector<vidx_t> sources(kQueries);
  for (auto& s : sources) s = pick(rng);

  // Serial per-query reference (the bit-identity oracle).
  const Context serial_ctx = Context{}.with_threads(1);
  std::vector<std::vector<std::int32_t>> expected;
  expected.reserve(kQueries);
  for (const vidx_t s : sources) {
    expected.push_back(algo::bfs(serial_ctx, g, {s}).levels);
  }

  ServerOptions opts;
  opts.workers = 4;
  opts.queue_capacity = kQueries;
  Server server(served.reg, opts);

  // 4 submitter threads racing 4 workers: replies must be bit-identical
  // to the serial pass regardless of which wave each query rode.
  std::vector<std::future<Reply>> futs(kQueries);
  {
    std::vector<std::thread> submitters;
    std::atomic<int> next{0};
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        for (;;) {
          const int i = next.fetch_add(1);
          if (i >= kQueries) return;
          futs[static_cast<std::size_t>(i)] = server.submit(
              kGraph, QueryKind::kBfs, sources[static_cast<std::size_t>(i)]);
        }
      });
    }
    for (auto& t : submitters) t.join();
  }
  for (int i = 0; i < kQueries; ++i) {
    const Reply r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(Status::kOk, r.status) << "query " << i;
    EXPECT_EQ(expected[static_cast<std::size_t>(i)], r.levels)
        << "query " << i << " source " << sources[static_cast<std::size_t>(i)]
        << " rode a wave of " << r.batch_width;
  }
  server.shutdown();
  const auto st = server.stats();
  EXPECT_EQ(kQueries, static_cast<int>(st.submitted));
  EXPECT_EQ(kQueries, static_cast<int>(st.completed));
  EXPECT_EQ(0u, st.shed_queue_full);
  EXPECT_EQ(0u, st.shed_deadline);
  EXPECT_EQ(kQueries, static_cast<int>(st.batched_queries));
}

TEST(Serving, ReachRepliesMatchBfsDerivedReachability) {
  const OneGraph served;
  const gb::Graph& g = served.g;
  constexpr int kQueries = 96;  // > one wave, with odd tail
  const Context serial_ctx = Context{}.with_threads(1);

  ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = kQueries;
  Server server(served.reg, opts);
  std::vector<std::future<Reply>> futs;
  futs.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    futs.push_back(server.submit(kGraph, QueryKind::kReach,
                                 static_cast<vidx_t>(i * 7) %
                                     g.num_vertices()));
  }
  for (auto& f : futs) {
    const Reply r = f.get();
    ASSERT_EQ(Status::kOk, r.status);
    ASSERT_EQ(static_cast<std::size_t>(g.num_vertices()), r.reached.size());
    const auto levels = algo::bfs(serial_ctx, g, {r.source}).levels;
    for (vidx_t v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(levels[static_cast<std::size_t>(v)] != algo::kUnreached,
                r.reached[static_cast<std::size_t>(v)] != 0)
          << "source " << r.source << " vertex " << v;
    }
  }
}

TEST(Serving, UnbatchedAblationMatchesBatched) {
  const OneGraph served;
  const gb::Graph& g = served.g;
  constexpr int kQueries = 64;
  std::vector<std::future<Reply>> batched, unbatched;
  {
    ServerOptions opts;
    opts.workers = 2;
    opts.queue_capacity = kQueries;
    Server server(served.reg, opts);
    for (int i = 0; i < kQueries; ++i) {
      batched.push_back(server.submit(kGraph, QueryKind::kBfs,
                                      static_cast<vidx_t>(i * 13) %
                                          g.num_vertices()));
    }
  }  // destructor drains
  {
    ServerOptions opts;
    opts.workers = 2;
    opts.queue_capacity = kQueries;
    opts.max_batch = 1;  // the ablation: per-query execution
    Server server(served.reg, opts);
    for (int i = 0; i < kQueries; ++i) {
      unbatched.push_back(server.submit(kGraph, QueryKind::kBfs,
                                        static_cast<vidx_t>(i * 13) %
                                            g.num_vertices()));
    }
    server.shutdown();
    EXPECT_EQ(1u, server.stats().widest_wave);
  }
  for (int i = 0; i < kQueries; ++i) {
    const Reply b = batched[static_cast<std::size_t>(i)].get();
    const Reply u = unbatched[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(Status::kOk, b.status);
    ASSERT_EQ(Status::kOk, u.status);
    EXPECT_EQ(u.levels, b.levels) << "query " << i;
    EXPECT_EQ(1, u.batch_width);
  }
}

TEST(Serving, ExpiredDeadlinesAreShedAndAccounted) {
  const OneGraph served;
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 64;
  Server server(served.reg, opts);

  // A deadline already in the past when submitted is guaranteed to be
  // past when a worker reaches it: deterministically shed.
  const auto expired = serving::clock::now() - 1ms;
  std::vector<std::future<Reply>> doomed;
  for (int i = 0; i < 8; ++i) {
    doomed.push_back(server.submit(kGraph, QueryKind::kBfs, i, expired));
  }
  // And a live one rides through normally.
  auto ok = server.submit(kGraph, QueryKind::kBfs, 0);
  for (auto& f : doomed) {
    const Reply r = f.get();
    EXPECT_EQ(Status::kShedDeadline, r.status);
    EXPECT_TRUE(r.levels.empty());
  }
  EXPECT_EQ(Status::kOk, ok.get().status);
  server.shutdown();
  const auto st = server.stats();
  EXPECT_EQ(8u, st.shed_deadline);
  EXPECT_EQ(1u, st.completed);
  EXPECT_EQ(st.submitted, st.completed + st.shed_queue_full + st.shed_deadline);
}

TEST(Serving, QueueFullBackpressureShedsAtTheDoor) {
  const OneGraph served;
  const gb::Graph& g = served.g;
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;  // every pop is width 1; storms must shed
  Server server(served.reg, opts);

  constexpr int kStorm = 400;
  std::vector<std::future<Reply>> futs;
  futs.reserve(kStorm);
  for (int i = 0; i < kStorm; ++i) {
    futs.push_back(server.submit(kGraph, QueryKind::kBfs,
                                 static_cast<vidx_t>(i) % g.num_vertices()));
  }
  int ok = 0, shed = 0;
  for (auto& f : futs) {
    const Reply r = f.get();
    if (r.status == Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(Status::kShedQueueFull, r.status);
      ++shed;
    }
  }
  server.shutdown();
  const auto st = server.stats();
  // Conservation: every submission is accounted exactly once.
  EXPECT_EQ(kStorm, ok + shed);
  EXPECT_EQ(static_cast<std::uint64_t>(kStorm), st.submitted);
  EXPECT_EQ(st.submitted, st.completed + st.shed_queue_full + st.shed_deadline);
  EXPECT_EQ(static_cast<std::uint64_t>(ok), st.completed);
  EXPECT_EQ(static_cast<std::uint64_t>(shed), st.shed_queue_full);
  // A 400-query burst against capacity 1 and ms-scale queries cannot
  // all be admitted.
  EXPECT_GT(shed, 0);
}

TEST(Serving, SubmitRejectsOutOfRangeSource) {
  const OneGraph served;
  const gb::Graph& g = served.g;
  Server server(served.reg, {});
  EXPECT_THROW((void)server.submit(kGraph, QueryKind::kBfs, -1),
               std::invalid_argument);
  EXPECT_THROW((void)server.submit(kGraph, QueryKind::kBfs, g.num_vertices()),
               std::invalid_argument);
  server.shutdown();
}

TEST(Serving, ShutdownDrainsEveryPendingFuture) {
  const OneGraph served;
  const gb::Graph& g = served.g;
  std::vector<std::future<Reply>> futs;
  {
    ServerOptions opts;
    opts.workers = 2;
    opts.queue_capacity = 512;
    Server server(served.reg, opts);
    for (int i = 0; i < 200; ++i) {
      futs.push_back(server.submit(kGraph, QueryKind::kBfs,
                                   static_cast<vidx_t>(i) %
                                       g.num_vertices()));
    }
  }  // destructor: close + drain + join
  for (auto& f : futs) {
    const Reply r = f.get();  // would block forever on a dropped promise
    EXPECT_EQ(Status::kOk, r.status);
  }
}

TEST(Serving, MixedKindsUnderLoadStaySegregatedAndCorrect) {
  const OneGraph served;
  const gb::Graph& g = served.g;
  const Context serial_ctx = Context{}.with_threads(1);
  ServerOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 256;
  Server server(served.reg, opts);
  std::vector<std::future<Reply>> futs;
  for (int i = 0; i < 128; ++i) {
    futs.push_back(server.submit(kGraph,
                                 i % 2 == 0 ? QueryKind::kBfs
                                            : QueryKind::kReach,
                                 static_cast<vidx_t>(i * 5) %
                                     g.num_vertices()));
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Reply r = futs[i].get();
    ASSERT_EQ(Status::kOk, r.status);
    const auto levels = algo::bfs(serial_ctx, g, {r.source}).levels;
    if (r.kind == QueryKind::kBfs) {
      EXPECT_EQ(levels, r.levels);
    } else {
      for (vidx_t v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(levels[static_cast<std::size_t>(v)] != algo::kUnreached,
                  r.reached[static_cast<std::size_t>(v)] != 0);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Reply telemetry: the fields client-side latency accounting reads
// ---------------------------------------------------------------------

TEST(ServingTelemetry, EveryResolutionPathStampsConsistentTiming) {
  const OneGraph served;
  // One worker whose every wave stalls 20ms: a storm against a 4-deep
  // queue must overflow it, whatever the scheduling.
  FaultPlan plan;
  plan.wave_delay = 20ms;
  FaultInjector injector(plan);
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 4;
  opts.context = opts.context.with_fault(&injector);
  Server server(served.reg, opts);

  struct Sent {
    serving::clock::time_point at;
    std::future<Reply> reply;
  };
  std::vector<Sent> sent;
  auto send = [&](std::string_view graph, vidx_t source,
                  serving::clock::time_point deadline) {
    const auto at = serving::clock::now();
    sent.push_back({at, server.submit(graph, QueryKind::kBfs, source,
                                      deadline)});
  };
  const auto never = serving::clock::time_point::max();
  // A live wave and an expired rider, then let them drain.
  for (vidx_t s = 0; s < 3; ++s) send(kGraph, s, never);
  send(kGraph, 3, serving::clock::now() - 1ms);
  for (auto& s : sent) s.reply.wait();
  // An unknown name, then a storm against the stalled worker.
  send("unknown", 0, never);
  for (vidx_t s = 0; s < 64; ++s) send(kGraph, s, never);

  std::array<int, serving::kNumStatuses> seen{};
  for (auto& s : sent) {
    const Reply r = s.reply.get();
    SCOPED_TRACE(serving::status_name(r.status));
    ++seen[static_cast<std::size_t>(r.status)];
    const std::chrono::duration<double, std::milli> latency =
        r.completed - s.at;
    EXPECT_GE(r.completed, s.at);
    EXPECT_GE(r.queue_ms, 0.0);
    EXPECT_LE(r.queue_ms, latency.count());
    if (r.status == Status::kOk) {
      EXPECT_GE(r.batch_width, 1);
    }
  }
  EXPECT_GT(seen[static_cast<std::size_t>(Status::kOk)], 0);
  EXPECT_EQ(1, seen[static_cast<std::size_t>(Status::kShedDeadline)]);
  EXPECT_EQ(1, seen[static_cast<std::size_t>(Status::kBadGraph)]);
  EXPECT_GT(seen[static_cast<std::size_t>(Status::kShedQueueFull)], 0);
}

// ---------------------------------------------------------------------
// Kind/status name tables
// ---------------------------------------------------------------------

TEST(ServingNames, QueryKindNamesAreTableDrivenAndComplete) {
  // Every enumerator prints its own name — the two-way-ternary
  // regression this table replaced made every new kind print "reach".
  EXPECT_STREQ("bfs", serving::query_kind_name(QueryKind::kBfs));
  EXPECT_STREQ("reach", serving::query_kind_name(QueryKind::kReach));
  EXPECT_STREQ("pagerank", serving::query_kind_name(QueryKind::kPagerank));
  EXPECT_STREQ("components",
               serving::query_kind_name(QueryKind::kComponents));
  // Pairwise distinct.
  for (std::size_t a = 0; a < serving::kNumQueryKinds; ++a) {
    for (std::size_t b = a + 1; b < serving::kNumQueryKinds; ++b) {
      EXPECT_STRNE(serving::query_kind_name(static_cast<QueryKind>(a)),
                   serving::query_kind_name(static_cast<QueryKind>(b)));
    }
  }
}

TEST(ServingNames, StatusNamesAreTableDrivenAndComplete) {
  EXPECT_STREQ("ok", serving::status_name(Status::kOk));
  EXPECT_STREQ("shed-queue-full",
               serving::status_name(Status::kShedQueueFull));
  EXPECT_STREQ("shed-deadline", serving::status_name(Status::kShedDeadline));
  EXPECT_STREQ("bad-graph", serving::status_name(Status::kBadGraph));
  EXPECT_STREQ("shed-shutdown", serving::status_name(Status::kShedShutdown));
  EXPECT_STREQ("shed-circuit-open",
               serving::status_name(Status::kShedCircuitOpen));
  EXPECT_STREQ("internal-error",
               serving::status_name(Status::kInternalError));
}

// ---------------------------------------------------------------------
// GraphRegistry
// ---------------------------------------------------------------------

gb::Graph small_graph(std::uint64_t seed, vidx_t n = 256) {
  gb::GraphOptions opts;
  opts.tile_dim = 8;
  return gb::Graph::from_coo(gen_random(n, 4 * n, seed), opts);
}

TEST(Registry, AddLookupRemoveAndGenerations) {
  GraphRegistry reg;
  EXPECT_EQ(nullptr, reg.lookup("a"));
  EXPECT_EQ(0u, reg.size());

  const auto a1 = reg.add("a", small_graph(1));
  ASSERT_NE(nullptr, a1);
  EXPECT_EQ("a", a1->name());
  // add() prewarms before publication: the bit formats are ready.
  EXPECT_EQ(gb::kBitFormats,
            a1->graph().formats() & gb::kBitFormats);
  EXPECT_EQ(a1.get(), reg.lookup("a").get());
  EXPECT_EQ(1u, reg.size());

  const auto b1 = reg.add("b", small_graph(2));
  EXPECT_GT(b1->generation(), a1->generation());
  EXPECT_EQ(2u, reg.size());
  const auto names = reg.names();
  EXPECT_NE(names.end(), std::find(names.begin(), names.end(), "a"));
  EXPECT_NE(names.end(), std::find(names.begin(), names.end(), "b"));

  // Re-add under the same name: a NEW slot with a HIGHER generation;
  // the old snapshot stays alive for whoever still holds it.
  const auto a2 = reg.add("a", small_graph(3));
  EXPECT_NE(a1.get(), a2.get());
  EXPECT_GT(a2->generation(), a1->generation());
  EXPECT_EQ(a2.get(), reg.lookup("a").get());
  EXPECT_EQ(256, a1->graph().num_vertices());  // snapshot still usable

  EXPECT_TRUE(reg.remove("a"));
  EXPECT_FALSE(reg.remove("a"));
  EXPECT_EQ(nullptr, reg.lookup("a"));
  EXPECT_EQ(1u, reg.size());
}

TEST(Registry, UnknownGraphRepliesBadGraphImmediately) {
  GraphRegistry reg;
  reg.add("known", small_graph(4));
  ServerOptions opts;
  opts.workers = 1;
  Server server(reg, opts);
  auto bad = server.submit("unknown", QueryKind::kBfs, 0);
  const Reply r = bad.get();
  EXPECT_EQ(Status::kBadGraph, r.status);
  EXPECT_TRUE(r.levels.empty());
  auto ok = server.submit("known", QueryKind::kBfs, 0);
  EXPECT_EQ(Status::kOk, ok.get().status);
  server.shutdown();
  const auto st = server.stats();
  EXPECT_EQ(2u, st.submitted);
  EXPECT_EQ(1u, st.completed);
  EXPECT_EQ(1u, st.shed_bad_graph);
  EXPECT_EQ(st.submitted, st.completed + st.shed_queue_full +
                              st.shed_deadline + st.shed_bad_graph);
}

TEST(Registry, NamedRoutingServesTheNamedGraph) {
  GraphRegistry reg;
  reg.add("g64", small_graph(5, 64));
  reg.add("g256", small_graph(6, 256));
  ServerOptions opts;
  opts.workers = 2;
  Server server(reg, opts);
  auto f64 = server.submit("g64", QueryKind::kBfs, 0);
  auto f256 = server.submit("g256", QueryKind::kBfs, 0);
  const Reply r64 = f64.get();
  const Reply r256 = f256.get();
  ASSERT_EQ(Status::kOk, r64.status);
  ASSERT_EQ(Status::kOk, r256.status);
  EXPECT_EQ(64u, r64.levels.size());
  EXPECT_EQ("g64", r64.graph);
  EXPECT_EQ(256u, r256.levels.size());
  EXPECT_EQ("g256", r256.graph);
  // Source validation is per-graph: 100 is valid on g256, not on g64.
  EXPECT_THROW((void)server.submit("g64", QueryKind::kBfs, 100),
               std::invalid_argument);
  EXPECT_EQ(Status::kOk,
            server.submit("g256", QueryKind::kBfs, 100).get().status);
}

TEST(Registry, RemoveWithInFlightQueriesDrainsSafely) {
  GraphRegistry reg;
  reg.add("doomed", small_graph(7, 512));
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 512;
  Server server(reg, opts);
  std::vector<std::future<Reply>> futs;
  for (int i = 0; i < 128; ++i) {
    futs.push_back(server.submit("doomed", QueryKind::kBfs,
                                 static_cast<vidx_t>(i * 3) % 512));
  }
  // Remove while the storm is (likely) still in flight: queued
  // requests co-own the slot, so every future must still resolve with
  // a full-size result from the removed graph.
  EXPECT_TRUE(reg.remove("doomed"));
  for (auto& f : futs) {
    const Reply r = f.get();
    ASSERT_EQ(Status::kOk, r.status);
    EXPECT_EQ(512u, r.levels.size());
    EXPECT_EQ("doomed", r.graph);
  }
  // After removal, new submits route nowhere.
  EXPECT_EQ(Status::kBadGraph,
            server.submit("doomed", QueryKind::kBfs, 0).get().status);
}

// ---------------------------------------------------------------------
// kPagerank / kComponents differentials (oracle corpus)
// ---------------------------------------------------------------------

TEST(ServingKinds, PagerankRepliesMatchDirectCallsOverOracleCorpus) {
  const Context serial_ctx = Context{}.with_threads(1);
  for (const auto& [name, csr] : test::small_matrices()) {
    GraphRegistry reg;
    gb::GraphOptions gopts;
    gopts.tile_dim = 8;
    reg.add(name, gb::Graph::from_csr(csr, gopts));
    const auto slot = reg.lookup(name);
    ASSERT_NE(nullptr, slot);

    ServerOptions opts;
    opts.workers = 2;
    Server server(reg, opts);
    const algo::PageRankParams defaults{};
    algo::PageRankParams tweaked;
    tweaked.max_iterations = 25;
    tweaked.alpha = 0.9f;
    auto f_default = server.submit_pagerank(name);
    auto f_tweaked = server.submit_pagerank(name, tweaked);
    const Reply r_default = f_default.get();
    const Reply r_tweaked = f_tweaked.get();
    server.shutdown();

    ASSERT_EQ(Status::kOk, r_default.status) << name;
    ASSERT_EQ(Status::kOk, r_tweaked.status) << name;
    // Bit-identical to the direct call on the same graph handle under
    // the same (serial, bit-backend) descriptor the workers use.
    const auto direct_default =
        algo::pagerank(serial_ctx, slot->graph(), defaults);
    const auto direct_tweaked =
        algo::pagerank(serial_ctx, slot->graph(), tweaked);
    EXPECT_EQ(direct_default.rank, r_default.rank) << name;
    EXPECT_EQ(direct_default.iterations, r_default.iterations) << name;
    EXPECT_EQ(direct_tweaked.rank, r_tweaked.rank) << name;
    EXPECT_EQ(direct_tweaked.iterations, r_tweaked.iterations) << name;
  }
}

TEST(ServingKinds, ComponentsRepliesMatchDirectCallsOverOracleCorpus) {
  const Context serial_ctx = Context{}.with_threads(1);
  for (const auto& [name, csr] : test::small_matrices()) {
    GraphRegistry reg;
    gb::GraphOptions gopts;
    gopts.tile_dim = 8;
    reg.add(name, gb::Graph::from_csr(csr, gopts));
    const auto slot = reg.lookup(name);
    ASSERT_NE(nullptr, slot);

    ServerOptions opts;
    opts.workers = 2;
    Server server(reg, opts);
    auto f1 = server.submit(name, QueryKind::kComponents);
    auto f2 = server.submit(name, QueryKind::kComponents);  // memo hit
    const Reply r1 = f1.get();
    const Reply r2 = f2.get();
    server.shutdown();

    ASSERT_EQ(Status::kOk, r1.status) << name;
    ASSERT_EQ(Status::kOk, r2.status) << name;
    // Element-identical to FastSV and to the batched labelling (all
    // three normalize to min-vertex-id labels).
    const auto fastsv =
        algo::connected_components(serial_ctx, slot->graph());
    EXPECT_EQ(fastsv.component, r1.component) << name;
    EXPECT_EQ(r1.component, r2.component) << name;
    EXPECT_EQ(r1.graph_generation, r2.graph_generation) << name;
  }
}

TEST(ServingKinds, ComponentsMemoInvalidatedByRegistryReAdd) {
  const Context serial_ctx = Context{}.with_threads(1);
  GraphRegistry reg;
  gb::GraphOptions gopts;
  gopts.tile_dim = 8;
  // Two structurally different graphs destined for the same name.
  reg.add("g", gb::Graph::from_coo(gen_block(96, 16, 5, 0.5, 15, true),
                                   gopts));
  ServerOptions opts;
  opts.workers = 1;
  Server server(reg, opts);

  const auto first_slot = reg.lookup("g");
  const Reply before = server.submit("g", QueryKind::kComponents).get();
  ASSERT_EQ(Status::kOk, before.status);
  EXPECT_EQ(algo::connected_components(serial_ctx, first_slot->graph())
                .component,
            before.component);

  // Re-add: new slot, new generation — the memoized labelling of the
  // old registration must NOT survive into the new one.
  reg.add("g", gb::Graph::from_coo(gen_road(10, 7, 0.05, 17), gopts));
  const auto second_slot = reg.lookup("g");
  ASSERT_NE(first_slot.get(), second_slot.get());
  const Reply after = server.submit("g", QueryKind::kComponents).get();
  ASSERT_EQ(Status::kOk, after.status);
  EXPECT_GT(after.graph_generation, before.graph_generation);
  EXPECT_EQ(algo::connected_components(serial_ctx, second_slot->graph())
                .component,
            after.component);
  EXPECT_NE(before.component.size(), after.component.size());
}

TEST(ServingKinds, AllFourKindsMixedUnderLoadStayCorrect) {
  GraphRegistry reg;
  gb::GraphOptions gopts;
  gopts.tile_dim = 8;
  reg.add("mix", gb::Graph::from_coo(gen_rmat(9, 2048, 7), gopts));
  const auto slot = reg.lookup("mix");
  const vidx_t n = slot->graph().num_vertices();
  const Context serial_ctx = Context{}.with_threads(1);

  ServerOptions opts;
  opts.workers = 4;
  opts.queue_capacity = 512;
  Server server(reg, opts);
  std::vector<std::future<Reply>> futs;
  for (int i = 0; i < 128; ++i) {
    const auto kind = static_cast<QueryKind>(i % serving::kNumQueryKinds);
    if (kind == QueryKind::kPagerank) {
      futs.push_back(server.submit_pagerank("mix"));
    } else {
      futs.push_back(
          server.submit("mix", kind, static_cast<vidx_t>(i * 5) % n));
    }
  }
  const auto expected_pr = algo::pagerank(serial_ctx, slot->graph());
  const auto expected_cc =
      algo::connected_components(serial_ctx, slot->graph());
  for (auto& f : futs) {
    const Reply r = f.get();
    ASSERT_EQ(Status::kOk, r.status);
    switch (r.kind) {
      case QueryKind::kBfs: {
        EXPECT_EQ(algo::bfs(serial_ctx, slot->graph(), {r.source}).levels,
                  r.levels);
        break;
      }
      case QueryKind::kReach: {
        const auto levels =
            algo::bfs(serial_ctx, slot->graph(), {r.source}).levels;
        ASSERT_EQ(static_cast<std::size_t>(n), r.reached.size());
        for (vidx_t v = 0; v < n; ++v) {
          EXPECT_EQ(levels[static_cast<std::size_t>(v)] != algo::kUnreached,
                    r.reached[static_cast<std::size_t>(v)] != 0);
        }
        break;
      }
      case QueryKind::kPagerank:
        EXPECT_EQ(expected_pr.rank, r.rank);
        break;
      case QueryKind::kComponents:
        EXPECT_EQ(expected_cc.component, r.component);
        break;
    }
  }
  server.shutdown();
  const auto st = server.stats();
  EXPECT_EQ(128u, st.submitted);
  EXPECT_EQ(128u, st.completed);
  // Per-kind counters partition the totals.
  std::uint64_t by_kind_submitted = 0, by_kind_completed = 0;
  for (std::size_t k = 0; k < serving::kNumQueryKinds; ++k) {
    by_kind_submitted += st.submitted_by_kind[k];
    by_kind_completed += st.completed_by_kind[k];
    EXPECT_EQ(32u, st.submitted_by_kind[k]);
  }
  EXPECT_EQ(st.submitted, by_kind_submitted);
  EXPECT_EQ(st.completed, by_kind_completed);
  // Every executed wave landed in exactly one histogram bucket.
  const std::uint64_t hist_total =
      std::accumulate(st.wave_width_hist.begin(), st.wave_width_hist.end(),
                      std::uint64_t{0});
  EXPECT_EQ(st.waves, hist_total);
}

// ---------------------------------------------------------------------
// The wave rule: a traversal run goes out as one wave only where the
// slot's measured costs say it pays
// ---------------------------------------------------------------------

TEST(WaveRule, NeverPaysAtWidthOne) {
  EXPECT_FALSE(serving::wave_pays(1, 1e9, 1.0));
  EXPECT_FALSE(serving::wave_pays(1, 0.0, 0.0));
  EXPECT_FALSE(serving::wave_pays(0, 1e9, 1.0));
}

TEST(WaveRule, AnUnmeasuredSidePays) {
  EXPECT_TRUE(serving::wave_pays(2, 0.0, 1e12));
  EXPECT_TRUE(serving::wave_pays(2, 1.0, 0.0));
  EXPECT_TRUE(serving::wave_pays(64, 0.0, 0.0));
}

TEST(WaveRule, MonotoneInWidthAndExactAtBreakEven) {
  for (const double single : {1.0, 72.0, 6100.0}) {
    for (const double wave : {1.0, 1700.0, 103000.0, 2.9e6}) {
      bool paid = false;
      for (int width = 1; width <= FrontierBatch::kMaxBatch; ++width) {
        const bool pays = serving::wave_pays(width, single, wave);
        EXPECT_TRUE(!paid || pays)
            << "stopped paying at width " << width << " (single " << single
            << " ns, wave " << wave << " ns)";
        paid = pays;
      }
    }
  }
  // width × single == wave pays; a hair more wave does not.
  EXPECT_TRUE(serving::wave_pays(17, 100.0, 1700.0));
  EXPECT_FALSE(serving::wave_pays(17, 100.0, 1700.5));
  EXPECT_FALSE(serving::wave_pays(16, 100.0, 1700.0));
}

/// One worker whose every wave start stalls `delay`: whatever is
/// submitted while the first pop stalls queues up behind it.
ServerOptions stalled_worker(FaultInjector& injector) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1024;
  opts.context = opts.context.with_fault(&injector);
  return opts;
}

TEST(WaveRule, PopTakesThePredicatesAnswerOnAPrimedSlot) {
  const OneGraph served;
  const vidx_t n = served.g.num_vertices();
  {
    // Lone requests measure single runs.  Then backlogs queue up behind
    // a stalled pop, so waves form (the first on a slot whose wave side
    // is still unmeasured: it pays, and measures it).  Several samples
    // a side keep one preempted run from deciding the means.
    FaultPlan plan;
    plan.wave_delay = 10ms;
    FaultInjector injector(plan);
    Server server(served.reg, stalled_worker(injector));
    for (vidx_t s = 0; s < 16; ++s) {
      ASSERT_EQ(Status::kOk,
                server.submit(kGraph, QueryKind::kBfs, s).get().status);
    }
    for (int backlog = 0; backlog < 4; ++backlog) {
      std::vector<std::future<Reply>> futs;
      for (int i = 0; i < 64; ++i) {
        futs.push_back(server.submit(kGraph, QueryKind::kBfs,
                                     static_cast<vidx_t>(i * 5 + backlog) % n));
      }
      for (auto& f : futs) ASSERT_EQ(Status::kOk, f.get().status);
    }
  }
  const serving::TraversalCost& cost =
      served.slot->traversal_cost(QueryKind::kBfs);
  const double single = cost.single.ns();
  const double wave = cost.wave.ns();
  ASSERT_GT(single, 0.0);
  ASSERT_GT(wave, 0.0);
  // The first width that pays, and the one just below it, straddle the
  // measured break-even wherever it lies; the engine's widths cover
  // the rest.
  const int first_paying =
      std::max(2, static_cast<int>(std::ceil(wave / single)));
  SCOPED_TRACE(::testing::Message() << "single " << single << " ns, wave "
                                    << wave << " ns, first paying width "
                                    << first_paying);
  std::vector<int> widths = {first_paying - 1, first_paying};
  for (int width = 1; width <= FrontierBatch::kMaxBatch; ++width) {
    widths.push_back(width);
  }
  for (const int width : widths) {
    RequestQueue q(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      Request r = make_request(QueryKind::kBfs, i);
      r.slot = served.slot;
      ASSERT_EQ(PushOutcome::kAccepted, q.try_push(std::move(r)));
    }
    std::vector<Request> batch;
    const bool pays = serving::wave_pays(width, single, wave);
    EXPECT_EQ(pays ? static_cast<std::size_t>(width) : 1u,
              q.pop_batch(batch, width))
        << "width " << width;
  }
}

TEST(WaveRule, BacklogOnOneWorkerFormsWideWavesUpToTheCap) {
  for (const int max_batch : {FrontierBatch::kMaxBatch, 4}) {
    SCOPED_TRACE(::testing::Message() << "max_batch " << max_batch);
    const OneGraph served;
    ServerOptions opts;
    opts.workers = 1;
    opts.queue_capacity = 1024;
    opts.max_batch = max_batch;
    Server server(served.reg, opts);
    std::vector<std::future<Reply>> futs;
    for (int i = 0; i < 512; ++i) {
      futs.push_back(server.submit(kGraph, QueryKind::kBfs,
                                   static_cast<vidx_t>(i * 11) %
                                       served.g.num_vertices()));
    }
    for (auto& f : futs) EXPECT_EQ(Status::kOk, f.get().status);
    server.shutdown();
    const auto st = server.stats();
    if (max_batch == FrontierBatch::kMaxBatch) {
      EXPECT_GT(st.widest_wave, 8u);
      EXPECT_GT(st.mean_wave_width(), 4.0);
    } else {
      EXPECT_LE(st.widest_wave, 4u);
    }
  }
}

TEST(WaveRule, WaveCountersAgreeWithReplyWidths) {
  const OneGraph served;
  const vidx_t n = served.g.num_vertices();
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 1024;
  Server server(served.reg, opts);
  // A backlog (wide waves), then a trickle (one request at a time).
  std::vector<Reply> replies;
  std::vector<std::future<Reply>> futs;
  for (int i = 0; i < 256; ++i) {
    futs.push_back(server.submit(kGraph, i % 2 == 0 ? QueryKind::kBfs
                                                    : QueryKind::kReach,
                                 static_cast<vidx_t>(i * 7) % n));
  }
  for (auto& f : futs) replies.push_back(f.get());
  for (int i = 0; i < 32; ++i) {
    replies.push_back(
        server.submit(kGraph, QueryKind::kBfs, static_cast<vidx_t>(i) % n)
            .get());
  }
  server.shutdown();
  const auto st = server.stats();
  double waves = 0.0;
  int widest = 0;
  for (const Reply& r : replies) {
    ASSERT_EQ(Status::kOk, r.status);
    ASSERT_GE(r.batch_width, 1);
    waves += 1.0 / r.batch_width;
    widest = std::max(widest, r.batch_width);
  }
  EXPECT_NEAR(static_cast<double>(st.waves), waves, 1e-6);
  EXPECT_EQ(replies.size(), st.batched_queries);
  EXPECT_EQ(static_cast<std::uint64_t>(widest), st.widest_wave);
  EXPECT_EQ(st.waves, std::accumulate(st.wave_width_hist.begin(),
                                      st.wave_width_hist.end(),
                                      std::uint64_t{0}));
}

TEST(WaveRule, QueuedOneByOneRepliesEachGetTheirOwnStartStamp) {
  // Two graphs: "a" is unmeasured (its waves pay), "b" is primed so no
  // wave pays.  A stalled first pop lets a mixed a/b BFS run and three
  // PageRanks queue behind it; the BFS run pops whole (it pays on "a",
  // the head's slot), and the batcher then runs b's partition one by
  // one.  One worker serializes everything, so every reply run alone
  // started after the reply before it completed.
  GraphRegistry reg;
  reg.add("a", serving_graph());
  const serving::GraphRef b = reg.add("b", serving_graph());
  b->traversal_cost(QueryKind::kBfs).single.add(1ns);
  b->traversal_cost(QueryKind::kBfs).wave.add(1h);

  FaultPlan plan;
  plan.wave_delay = 20ms;
  FaultInjector injector(plan);
  Server server(reg, stalled_worker(injector));
  struct Sent {
    serving::clock::time_point after;  ///< just after submit returned
    std::future<Reply> reply;
  };
  std::vector<Sent> sent;
  auto send = [&](std::future<Reply> f) {
    sent.push_back({serving::clock::now(), std::move(f)});
  };
  send(server.submit("a", QueryKind::kBfs, 0));
  for (vidx_t s = 1; s <= 8; ++s) {
    send(server.submit(s % 2 == 1 ? "a" : "b", QueryKind::kBfs, s));
  }
  for (int i = 0; i < 3; ++i) send(server.submit_pagerank("a"));

  struct Done {
    serving::clock::time_point latest_start;  ///< bound on its start stamp
    Reply reply;
  };
  std::vector<Done> done;
  for (auto& s : sent) {
    Reply r = s.reply.get();
    ASSERT_EQ(Status::kOk, r.status);
    const auto queued = std::chrono::duration_cast<serving::clock::duration>(
        std::chrono::duration<double, std::milli>(r.queue_ms));
    done.push_back({s.after + queued, std::move(r)});
  }
  std::sort(done.begin(), done.end(), [](const Done& x, const Done& y) {
    return x.reply.completed < y.reply.completed;
  });
  int singles = 0;
  for (std::size_t k = 1; k < done.size(); ++k) {
    if (done[k].reply.batch_width != 1) continue;
    ++singles;
    EXPECT_GE(done[k].latest_start, done[k - 1].reply.completed)
        << "reply " << k << " (" << serving::query_kind_name(done[k].reply.kind)
        << ") shares a start stamp with a run ahead of it";
  }
  EXPECT_GE(singles, 7);  // b's four BFS and the three PageRanks
}

}  // namespace
}  // namespace bitgb
