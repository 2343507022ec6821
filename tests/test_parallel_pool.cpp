// Regression tests for the shared worker pool (src/platform/parallel.*).
//
// The pool tests call detail::pool_run directly: parallel_for guards
// empty ranges itself, but pool_run is an exported entry point and an
// inverted range used to drive the participant accounting negative and
// hang the caller forever on done_cv_ (the ctest TIMEOUT would fire).
#include "platform/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

namespace bitgb {
namespace {

struct SumCtx {
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> calls{0};
};

void sum_body(const void* ctx, std::int64_t lo, std::int64_t hi) {
  auto* c = const_cast<SumCtx*>(static_cast<const SumCtx*>(ctx));
  std::int64_t s = 0;
  for (std::int64_t i = lo; i < hi; ++i) s += i;
  c->sum.fetch_add(s, std::memory_order_relaxed);
  c->calls.fetch_add(1, std::memory_order_relaxed);
}

TEST(PoolRun, InvertedRangeReturnsImmediately) {
  // end < begin: must be a no-op, not a negative-participant hang.
  SumCtx c;
  detail::pool_run(10, 0, 4, sum_body, &c, 4);
  EXPECT_EQ(0, c.sum.load());
  EXPECT_EQ(0, c.calls.load());
}

TEST(PoolRun, EmptyRangeReturnsImmediately) {
  SumCtx c;
  detail::pool_run(5, 5, 4, sum_body, &c, 4);
  EXPECT_EQ(0, c.sum.load());
  EXPECT_EQ(0, c.calls.load());
}

TEST(PoolRun, InvertedRangeDoesNotPoisonLaterJobs) {
  // A discarded job must leave the pool able to run real work (the old
  // failure mode left busy_ negative, wedging every later caller).
  SumCtx bad;
  detail::pool_run(100, -100, 8, sum_body, &bad, 8);
  SumCtx good;
  detail::pool_run(0, 1000, 16, sum_body, &good, 8);
  EXPECT_EQ(1000 * 999 / 2, good.sum.load());
}

TEST(PoolRun, SingleElementRange) {
  SumCtx c;
  detail::pool_run(7, 8, 4, sum_body, &c, 4);
  EXPECT_EQ(7, c.sum.load());
  EXPECT_EQ(1, c.calls.load());
}

TEST(PoolRun, CoversRangeExactlyOnce) {
  for (const int width : {1, 2, 4, 16}) {
    SumCtx c;
    detail::pool_run(0, 4097, 64, sum_body, &c, width);
    EXPECT_EQ(static_cast<std::int64_t>(4097) * 4096 / 2, c.sum.load())
        << "width " << width;
  }
}

TEST(ParallelFor, InvertedRangeIsANoOp) {
  std::atomic<int> hits{0};
  parallel_for(4, 10, 0, [&](int) { hits.fetch_add(1); });
  EXPECT_EQ(0, hits.load());
}

}  // namespace
}  // namespace bitgb
