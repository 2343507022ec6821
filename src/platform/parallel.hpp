// Shared-memory parallel runtime.
//
// The paper maps one tile-row to one warp and lets the SM scheduler run
// up to 64 warps concurrently (§IV, warp-consolidation model).  The host
// analog is a parallel loop over tile rows.  All kernels parallelize
// through this header, and every entry point takes the worker width as
// an explicit argument — there is no process-global thread count to
// mutate, so two queries running concurrently can use different thread
// budgets (their Contexts carry the width; see platform/context.hpp).
//
// The backend is a built-in std::thread chunk-stealing pool —
// deliberately NOT OpenMP: gcc compiles every function differently in
// -fopenmp mode and the *serial* code of the hot kernels measurably
// regresses (~10-30% on the µs-scale BMV/frontier loops), which would
// tax the 1-thread pascal-analog profile that anchors the paper
// comparison.  The pool gives the volta-analog profile real threads
// with zero cost to the serial paths, and builds on any toolchain.
// The pool itself is shared (workers are lazily spawned up to the
// hardware width and reused by every caller); the *width* of each job
// is per-call, which is what makes the budget a per-Context property.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace bitgb {

/// Number of hardware threads (>= 1).  This is the width a `width = 0`
/// parallel region resolves to — a cached std::thread::hardware_concurrency.
[[nodiscard]] int hardware_width() noexcept;

/// Hard ceiling on any explicit worker request — the same bound
/// Context::from_env validates against, so a value that parses is a
/// value that is honored.  Explicit widths above the hardware width are
/// allowed (deliberate oversubscription, and the escape hatch for
/// hosts where hardware_concurrency() misreports 0); the ceiling only
/// stops a pathological budget from spawning unbounded OS threads.
inline constexpr int kMaxWorkerWidth = 4096;

/// Resolve a requested worker width: <= 0 means "all hardware threads";
/// explicit requests are honored up to kMaxWorkerWidth.
[[nodiscard]] inline int resolve_width(int width) noexcept {
  return width <= 0 ? hardware_width()
                    : (width < kMaxWorkerWidth ? width : kMaxWorkerWidth);
}

namespace detail {

/// True on a thread currently executing pool work — parallel_for from
/// inside a parallel region runs serially instead of deadlocking.
[[nodiscard]] bool in_parallel_region() noexcept;

/// Dispatch [begin, end) in chunks of `chunk` across the pool with the
/// given participant width; every participant (the calling thread
/// included) repeatedly steals the next chunk and calls
/// body(ctx, lo, hi).  Blocks until the whole range is done.
void pool_run(std::int64_t begin, std::int64_t end, std::int64_t chunk,
              void (*body)(const void*, std::int64_t, std::int64_t),
              const void* ctx, int width);

/// The serial path, isolated in its own never-inlined function with a
/// by-value closure: sharing a function body with the pool dispatch
/// (whose trampoline takes the closure's address) makes gcc spill the
/// captures to the stack throughout, measurably slowing the µs-scale
/// kernels.  Here the closure is a plain local — captures live in
/// registers, exactly as in a build with no threading at all.
template <typename Index, typename Fn>
[[gnu::noinline]] void serial_for(Index begin, Index end, Fn fn) {
  for (Index i = begin; i < end; ++i) fn(i);
}

}  // namespace detail

/// parallel_for(width, begin, end, fn): run fn(i) for i in [begin, end)
/// across at most `width` workers (0 = hardware width; 1 = pure serial,
/// never touching the pool — µs-scale kernels under a 1-thread Context
/// pay nothing for the machinery).  `fn` must be safe to run
/// concurrently for distinct i (the B2SR kernels write disjoint output
/// rows per tile-row, matching the one-warp-per-tile-row mapping of the
/// paper).
template <typename Index, typename Fn>
void parallel_for(int width, Index begin, Index end, Fn&& fn) {
  if (end <= begin) return;
  using F = std::decay_t<Fn>;
  if (resolve_width(width) > 1 && !detail::in_parallel_region()) {
    detail::pool_run(
        static_cast<std::int64_t>(begin), static_cast<std::int64_t>(end), 64,
        [](const void* ctx, std::int64_t lo, std::int64_t hi) {
          const F& f = *static_cast<const F*>(ctx);
          for (std::int64_t i = lo; i < hi; ++i) f(static_cast<Index>(i));
        },
        &fn, resolve_width(width));
    return;
  }
  detail::serial_for(begin, end, F(fn));
}

/// Hardware-width convenience overload (for callers with no Context —
/// corpus generation, gold references, one-off tooling).
template <typename Index, typename Fn>
void parallel_for(Index begin, Index end, Fn&& fn) {
  parallel_for(0, begin, end, std::forward<Fn>(fn));
}

/// parallel_for with a static schedule — for uniform per-iteration work
/// (e.g. packing kernels) where dynamic scheduling would only add
/// overhead.  With the chunk-stealing pool this is the same dispatch
/// with one contiguous chunk per worker.
template <typename Index, typename Fn>
void parallel_for_static(int width, Index begin, Index end, Fn&& fn) {
  if (end <= begin) return;
  using F = std::decay_t<Fn>;
  const int nthreads = resolve_width(width);
  if (nthreads > 1 && !detail::in_parallel_region()) {
    const auto b = static_cast<std::int64_t>(begin);
    const auto e = static_cast<std::int64_t>(end);
    const std::int64_t chunk = (e - b + nthreads - 1) / nthreads;
    detail::pool_run(
        b, e, chunk,
        [](const void* ctx, std::int64_t lo, std::int64_t hi) {
          const F& f = *static_cast<const F*>(ctx);
          for (std::int64_t i = lo; i < hi; ++i) f(static_cast<Index>(i));
        },
        &fn, nthreads);
    return;
  }
  detail::serial_for(begin, end, F(fn));
}

template <typename Index, typename Fn>
void parallel_for_static(Index begin, Index end, Fn&& fn) {
  parallel_for_static(0, begin, end, std::forward<Fn>(fn));
}

/// Exclusive prefix sum over per-chunk counts: out[0] = 0,
/// out[i + 1] = counts[0] + ... + counts[i]; `out` must hold n + 1
/// entries.  This is the tile_rowptr builder of the ingest pipeline
/// (csr2bsrNnz -> rowptr step): per-tile-row counts from the parallel
/// count pass become tile offsets.  Large inputs run the classic
/// three-phase block scan (parallel partial sums, serial block
/// offsets, parallel add-back); small ones fall back to the serial
/// scan that the three-phase version would only slow down.
template <typename T>
void parallel_exclusive_scan(int width, const T* counts, std::size_t n,
                             T* out) {
  out[0] = T{0};
  constexpr std::size_t kSerialCutoff = 1 << 15;
  const int nthreads = resolve_width(width);
  if (n >= kSerialCutoff && nthreads > 1) {
    const auto nblocks = static_cast<std::size_t>(nthreads);
    const std::size_t block = (n + nblocks - 1) / nblocks;
    std::vector<T> block_sum(nblocks, T{0});
    parallel_for_static(nthreads, std::size_t{0}, nblocks, [&](std::size_t b) {
      const std::size_t lo = b * block;
      const std::size_t hi = std::min(n, lo + block);
      T sum{0};
      for (std::size_t i = lo; i < hi; ++i) sum += counts[i];
      block_sum[b] = sum;
    });
    std::vector<T> block_off(nblocks, T{0});
    for (std::size_t b = 1; b < nblocks; ++b) {
      block_off[b] = block_off[b - 1] + block_sum[b - 1];
    }
    parallel_for_static(nthreads, std::size_t{0}, nblocks, [&](std::size_t b) {
      const std::size_t lo = b * block;
      const std::size_t hi = std::min(n, lo + block);
      T run = block_off[b];
      for (std::size_t i = lo; i < hi; ++i) {
        run += counts[i];
        out[i + 1] = run;
      }
    });
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i + 1] = out[i] + counts[i];
}

/// Atomic float min on a shared cell (atomicMin analog for the sub-warp
/// tile variants, paper §V SSSP/CC).  Implemented as a CAS loop because
/// C++ has no atomic float min.
void atomic_min_float(float* cell, float v) noexcept;

/// Atomic float add on a shared cell (atomicAdd analog, paper §V PR/TC).
void atomic_add_float(float* cell, float v) noexcept;

/// Atomic OR on a packed bit-vector word (frontier updates).
void atomic_or_u32(std::uint32_t* cell, std::uint32_t v) noexcept;

}  // namespace bitgb
