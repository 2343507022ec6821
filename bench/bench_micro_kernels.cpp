// Kernel micro-benchmarks with a worker-thread sweep.
//
// Measures every vectorized hot path (the Boolean, counting and
// semiring BMV pull kernels, both BMM sums, the batched frontier BMM
// pull and its push, packing and bit SpGEMM) at all four
// tile dims on a fixed representative matrix — one cell per (kernel,
// tile dim, threads), each running the SIMD body CPUID picked — repeats the
// whole grid once per swept thread count (1 and the host's hardware
// width when they differ), prints the table, and emits the
// machine-readable BENCH_kernels.json perf-trajectory record (schema
// bitgb-kernel-bench-v3 in BUILDING.md; the committed copy at the repo
// root is regenerated by this binary under `-march=native` Release
// builds).  Exits non-zero when the JSON cannot be written.
//
// Uses the in-tree benchlib harness rather than Google Benchmark so the
// bench runs everywhere the library builds and the JSON dump is
// first-class.  Output path: argv[1], default "BENCH_kernels.json".
#include "baseline/csrgemm.hpp"
#include "baseline/csrmv.hpp"
#include "core/bit_spgemm.hpp"
#include "core/bmm.hpp"
#include "core/bmv.hpp"
#include "core/frontier_batch.hpp"
#include "core/pack.hpp"
#include "graphblas/graph.hpp"
#include "platform/device_profile.hpp"
#include "platform/exec.hpp"
#include "platform/parallel.hpp"
#include "platform/simd.hpp"
#include "platform/timer.hpp"
#include "sparse/convert.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

#include "benchlib/reporting.hpp"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace bitgb;

const Csr& fixture_matrix() {
  static const Csr m = coo_to_csr(gen_banded(4096, 16, 0.6, 42));
  return m;
}

template <int Dim>
const B2srT<Dim>& fixture_packed() {
  static const B2srT<Dim> b = pack_from_csr<Dim>(fixture_matrix());
  return b;
}

/// Triangle counting's operand on a power-law graph, the second
/// fixture of the masked BMM sum: the lower triangle of
/// gen_rmat(12, 1 << 15, 42).  Its tile-rows are long and its tiles
/// hold few bits, which the banded fixture (3-9 dense tiles per
/// tile-row) cannot show.
template <int Dim>
const B2srT<Dim>& powerlaw_lower_packed() {
  static const B2srT<Dim> b = pack_from_csr<Dim>(
      lower_triangle(coo_to_csr(gen_rmat(12, 1 << 15, 42))));
  return b;
}

/// Twin of powerlaw_lower_packed: the operand Graph builds for TC on
/// the same generator.  Graph symmetrizes it, and its degrees are
/// skewed (mean 14.8, median 3), so lower() is the degree-ordered
/// triangle (degree_ordered_lower).
template <int Dim>
const B2srT<Dim>& powerlaw_ordered_lower_packed() {
  static const B2srT<Dim> b = pack_from_csr<Dim>(
      gb::Graph::from_coo(gen_rmat(12, 1 << 15, 42)).lower());
  return b;
}

/// The power-law traversal fixture: the symmetrized
/// gen_rmat(12, 1 << 15, 42), whose tiles mostly hold one bit.
const Csr& powerlaw_matrix() {
  static const Csr m = symmetrize(coo_to_csr(gen_rmat(12, 1 << 15, 42)));
  return m;
}

/// The msbfs wave's operand on the power-law fixture, the second
/// fixture of the frontier pull, and BFS's pull operand.
template <int Dim>
const B2srT<Dim>& powerlaw_packed() {
  static const B2srT<Dim> b = pack_from_csr<Dim>(powerlaw_matrix());
  return b;
}

std::vector<value_t> fixture_vector() {
  std::vector<value_t> x(static_cast<std::size_t>(fixture_matrix().ncols));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = (i % 2 == 0) ? 1.5f : 0.0f;
  }
  return x;
}

/// A 64-lane frontier over n vertices, each bit set with p = 0.2.
FrontierBatch fixture_frontier(vidx_t n) {
  FrontierBatch f(n, 64);
  std::mt19937_64 rng(7);
  std::bernoulli_distribution on(0.2);
  for (vidx_t v = 0; v < f.n; ++v) {
    for (int b = 0; b < 64; ++b) {
      if (on(rng)) f.set(v, b);
    }
  }
  return f;
}

/// Per-call latency: one warm-up sizes an ~8 ms repetition window,
/// then the minimum window mean over five windows is reported.  The
/// min discards windows inflated by scheduler interference (the bench
/// often shares its host), which a single long mean would fold into
/// every cell; sub-microsecond kernels still get jitter-resistant
/// windows (the rep ceiling only guards the degenerate
/// zero-measurement case).
double measure_ms(const std::function<void()>& fn) {
  fn();  // warm-up
  Stopwatch w;
  fn();
  const double once = w.elapsed_ms();
  const int reps = std::clamp(
      once <= 0.0 ? 8000 : static_cast<int>(8.0 / once) + 1, 3, 8000);
  double best = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    w.reset();
    for (int i = 0; i < reps; ++i) fn();
    const double ms = w.elapsed_ms() / reps;
    if (pass == 0 || ms < best) best = ms;
  }
  return best;
}

std::vector<bench::KernelBenchRecord>& records() {
  static std::vector<bench::KernelBenchRecord> r;
  return r;
}

// The worker-thread count of the sweep pass currently running; every
// recorded cell carries it (the schema's per-record `threads`).
int g_threads = 1;

// Kernel results land here: the kernels live in another translation
// unit, but keep the results observable regardless.
volatile std::int64_t g_bmm_sink;

/// Time `fn` on the current sweep's thread budget and record one cell.
void track(const std::string& kernel, int dim, double edges_per_op,
           const std::function<void(Exec)>& fn) {
  const Exec exec{.threads = g_threads};
  const double ms = measure_ms([&] { fn(exec); });
  records().push_back(bench::KernelBenchRecord{
      kernel, dim, ms, ms > 0.0 ? edges_per_op / (ms * 1e6) : 0.0,
      g_threads});
}

/// Record one push cell: bmm_frontier_push_masked over every tile-row
/// of `a`, clearing the rows it touched before the next call.
template <int Dim>
void track_push(const std::string& kernel, const B2srT<Dim>& a,
                const FrontierBatch& f, const FrontierBatch& mask) {
  std::vector<vidx_t> all(static_cast<std::size_t>(a.n_tile_rows()));
  std::iota(all.begin(), all.end(), vidx_t{0});
  FrontierBatch next(a.ncols, f.batch);
  std::vector<vidx_t> touched;
  track(kernel, Dim, static_cast<double>(a.nnz()), [&](Exec) {
    for (const vidx_t v : touched) next.rows[static_cast<std::size_t>(v)] = 0;
    touched.clear();
    bmm_frontier_push_masked(a, f, all, mask, next, touched);
  });
}

template <int Dim>
void bench_dim() {
  const auto& a = fixture_packed<Dim>();
  const double nnz = static_cast<double>(a.nnz());
  const auto xb = PackedVecT<Dim>::from_values(fixture_vector());
  {
    PackedVecT<Dim> y;
    track("bmv_bin_bin_bin", Dim, nnz,
          [&](Exec e) { bmv_bin_bin_bin(a, xb, y, e); });
    PackedVecT<Dim> mask(a.nrows);
    for (vidx_t i = 0; i < a.nrows; i += 3) mask.set(i);
    track("bmv_bin_bin_bin_masked", Dim, nnz,
          [&](Exec e) { bmv_bin_bin_bin_masked(a, xb, mask, true, y, e); });
    // The late-BFS shape: `visited` closes 15 of every 16 tile-rows,
    // which the pull skips whole (the mask above never closes one).
    PackedVecT<Dim> visited(a.nrows);
    for (vidx_t i = 0; i < a.nrows; ++i) {
      if ((i / Dim) % 16 != 0) visited.set(i);
    }
    track("bmv_bin_bin_bin_masked_late", Dim, nnz, [&](Exec e) {
      bmv_bin_bin_bin_masked(a, xb, visited, true, y, e);
    });
    // BFS's level-2 pull from the power-law fixture's hub: the frontier
    // is the hub's neighbours, and visited holds them, the hub and the
    // isolated vertices (BFS closes those before its first pull).  Most
    // open tile-rows settle long before their last tile, which the
    // banded fixture's 3-9 dense tiles per tile-row cannot show.
    const Csr& pm = powerlaw_matrix();
    const auto& p = powerlaw_packed<Dim>();
    vidx_t hub = 0;
    for (vidx_t v = 1; v < pm.nrows; ++v) {
      if (pm.row_cols(v).size() > pm.row_cols(hub).size()) hub = v;
    }
    PackedVecT<Dim> pfrontier(pm.ncols);
    PackedVecT<Dim> pvisited(pm.nrows);
    pvisited.set(hub);
    for (const vidx_t v : pm.row_cols(hub)) {
      pfrontier.set(v);
      pvisited.set(v);
    }
    for (vidx_t v = 0; v < pm.nrows; ++v) {
      if (pm.row_cols(v).empty()) pvisited.set(v);
    }
    track("bmv_bin_bin_bin_masked_powerlaw", Dim,
          static_cast<double>(p.nnz()), [&](Exec e) {
            bmv_bin_bin_bin_masked(p, pfrontier, pvisited, true, y, e);
          });
  }
  {
    std::vector<value_t> y;
    track("bmv_bin_bin_full", Dim, nnz,
          [&](Exec e) { bmv_bin_bin_full(a, xb, y, e); });
    const auto xf = fixture_vector();
    std::vector<value_t> yf;
    track("bmv_bin_full_full", Dim, nnz,
          [&](Exec e) { bmv_bin_full_full<Dim, PlusTimesOp>(a, xf, yf, e); });
    // The frontier-SSSP shape, twin of bmv_bin_bin_bin_masked_late: the
    // candidate mask opens 1 of every 16 tile-rows, and the kernel skips
    // the closed ones whole.
    PackedVecT<Dim> open(a.nrows);
    for (vidx_t i = 0; i < a.nrows; ++i) {
      if ((i / Dim) % 16 == 0) open.set(i);
    }
    std::vector<value_t> yl(static_cast<std::size_t>(a.nrows), 0.0f);
    track("bmv_bin_full_full_masked_late", Dim, nnz, [&](Exec e) {
      bmv_bin_full_full_masked<Dim, MinPlusOp>(a, xf, open, false, yl, e);
    });
  }
  {
    // Packing, SpGEMM, transpose.
    track("pack_from_csr", Dim, nnz, [&](Exec e) {
      const auto p = pack_from_csr<Dim>(fixture_matrix(), e);
      g_bmm_sink = p.nnz_tiles();
    });
    track("bit_spgemm", Dim, nnz, [&](Exec e) {
      const auto c = bit_spgemm(a, a, e);
      g_bmm_sink = c.nnz_tiles();
    });
    track("transpose", Dim, nnz, [&](Exec e) {
      const auto t = transpose(a, e);
      g_bmm_sink = t.nnz_tiles();
    });
  }
  {
    track("bmm_bin_bin_sum", Dim, nnz,
          [&](Exec e) { g_bmm_sink = bmm_bin_bin_sum(a, a, e); });
    track("bmm_bin_bin_sum_masked", Dim, nnz,
          [&](Exec e) { g_bmm_sink = bmm_bin_bin_sum_masked(a, a, a, e); });
    const auto& l = powerlaw_lower_packed<Dim>();
    track("bmm_bin_bin_sum_masked_powerlaw", Dim,
          static_cast<double>(l.nnz()),
          [&](Exec e) { g_bmm_sink = bmm_bin_bin_sum_masked(l, l, l, e); });
    const auto& lo = powerlaw_ordered_lower_packed<Dim>();
    track("bmm_bin_bin_sum_masked_powerlaw_ordered", Dim,
          static_cast<double>(lo.nnz()),
          [&](Exec e) { g_bmm_sink = bmm_bin_bin_sum_masked(lo, lo, lo, e); });
  }
  {
    const FrontierBatch f = fixture_frontier(a.ncols);
    FrontierBatch next;
    FrontierBatch mask(a.nrows, 64);
    track("bmm_frontier_masked", Dim, nnz,
          [&](Exec e) { bmm_frontier_masked(a, f, mask, true, next, e); });
    // The late-wave shape, twin of bmv_bin_bin_bin_masked_late: lanes
    // 48-63 are dead (empty frontiers that `visited` leaves open), and
    // visited closes every live lane in 15 of every 16 tile-rows, which
    // the pull skips whole.
    const FrontierBatch::word_t live = low_mask<FrontierBatch::word_t>(48);
    FrontierBatch late = f;
    for (auto& w : late.rows) w &= live;
    FrontierBatch visited(a.nrows, 64);
    for (vidx_t i = 0; i < a.nrows; ++i) {
      if ((i / Dim) % 16 != 0) visited.rows[static_cast<std::size_t>(i)] = live;
    }
    track("bmm_frontier_masked_late", Dim, nnz, [&](Exec e) {
      bmm_frontier_masked(a, late, visited, true, next, e);
    });
    const auto& p = powerlaw_packed<Dim>();
    const FrontierBatch pf = fixture_frontier(p.ncols);
    FrontierBatch pmask(p.nrows, 64);
    track("bmm_frontier_masked_powerlaw", Dim, static_cast<double>(p.nnz()),
          [&](Exec e) { bmm_frontier_masked(p, pf, pmask, true, next, e); });
    // The push over every tile-row with nothing visited: ms / nnz_tiles
    // is the push's cost per tile, beside the pull's in the
    // bmm_frontier_masked cells (msbfs's direction rule weighs the two).
    // Serial by design, so the threads column repeats it.
    track_push("bmm_frontier_push_masked", a, f, mask);
    track_push("bmm_frontier_push_masked_powerlaw", p, pf, pmask);
  }
}

}  // namespace

/// Merge one grid repetition into the running best: per cell, keep the
/// fastest observation (multi-second interference bursts hit whole
/// repetitions; the per-cell min across repetitions discards them the
/// same way measure_ms's window min discards short ones).
void merge_best(std::vector<bench::KernelBenchRecord>& best,
                const std::vector<bench::KernelBenchRecord>& rep) {
  for (const auto& r : rep) {
    bool found = false;
    for (auto& b : best) {
      if (b.kernel == r.kernel && b.tile_dim == r.tile_dim &&
          b.threads == r.threads) {
        if (r.ms_per_op < b.ms_per_op) b = r;
        found = true;
        break;
      }
    }
    if (!found) best.push_back(r);
  }
}

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  const int grid_reps = argc > 2 ? std::max(1, std::atoi(argv[2])) : 1;
  std::cout << "== kernel micro-bench (thread sweep) ==\n";
  std::cout << simd_summary() << "\n\n";

  // CSR float baselines (context rows, pinned to one worker so the
  // recorded threads=1 provenance is true even on a multi-core host
  // whose ambient pool width is larger).
  {
    g_threads = 1;
    const Exec exec = Exec::serial();
    const auto x = fixture_vector();
    Csr unit = fixture_matrix();
    unit.val.assign(static_cast<std::size_t>(unit.nnz()), 1.0f);
    const double nnz = static_cast<double>(unit.nnz());
    std::vector<value_t> y;
    const double ms = measure_ms([&] { baseline::csrmv(unit, x, y, exec); });
    records().push_back(bench::KernelBenchRecord{
        "baseline_csrmv", 0, ms, ms > 0.0 ? nnz / (ms * 1e6) : 0.0, 1});
    const double gemm_ms = measure_ms([&] {
      const auto c = baseline::csrgemm(unit, unit, exec);
      g_bmm_sink = c.nnz();
    });
    records().push_back(bench::KernelBenchRecord{
        "baseline_csrgemm", 0, gemm_ms,
        gemm_ms > 0.0 ? nnz / (gemm_ms * 1e6) : 0.0, 1});
  }

  // Thread sweep: single-threaded (the trajectory's comparable rows)
  // plus the host's full hardware width when it has one.  The whole
  // grid repeats argv[2] times (default 1), keeping each cell's best.
  std::vector<int> thread_counts{1};
  const int hw = std::max(hardware_width(), volta_analog().num_threads);
  if (hw > 1) thread_counts.push_back(hw);

  std::vector<bench::KernelBenchRecord> best = records();
  for (int rep = 0; rep < grid_reps; ++rep) {
    records().clear();
    for (const int threads : thread_counts) {
      g_threads = threads;
      bench_dim<4>();
      bench_dim<8>();
      bench_dim<16>();
      bench_dim<32>();
    }
    merge_best(best, records());
    if (grid_reps > 1) {
      std::cout << "grid repetition " << (rep + 1) << "/" << grid_reps
                << " done\n";
    }
  }

  bench::print_kernel_bench(std::cout, best);
  try {
    bench::write_kernel_bench_json(
        out_path, simd::backend_name(simd::active_backend()), hw,
        "gen_banded(4096, 16, 0.6, 42)", best);
  } catch (const std::runtime_error& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
