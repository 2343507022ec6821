// Table / figure rendering for the benchmark binaries.
//
// Figures are printed as density-bucketed geometric-mean speedup series
// (the same series the paper's log-log scatter plots show) plus an
// optional CSV dump for external plotting; tables are printed with
// aligned columns in the paper's row layout.
#pragma once

#include "sparse/types.hpp"

#include <iosfwd>
#include <string>
#include <vector>

namespace bitgb::bench {

/// One measured point of a kernel sweep (Figures 6/7).
struct SweepPoint {
  std::string matrix;
  double density = 0.0;   ///< nnz / n^2 (the x axis)
  int tile_dim = 0;       ///< 4/8/16/32 (the series)
  double speedup = 0.0;   ///< ours vs baseline (the y axis)
};

/// Density decade buckets E-07 .. E-01 as in the figures' x axis.
[[nodiscard]] int density_bucket(double density);
[[nodiscard]] std::string bucket_label(int bucket);

/// Print one figure panel: per tile-dim series of geomean speedup per
/// density bucket, plus overall average and max speedup per dim (the
/// numbers quoted in §VI-D).
void print_sweep_figure(std::ostream& os, const std::string& title,
                        const std::vector<SweepPoint>& points);

/// Write the raw points as CSV (matrix,density,tile_dim,speedup).
void write_sweep_csv(const std::string& path,
                     const std::vector<SweepPoint>& points);

/// Geometric mean (returns 0 for empty input).
[[nodiscard]] double geomean(const std::vector<double>& xs);

/// One row of the algorithm tables (VII/VIII): baseline & ours, ms.
struct AlgoRow {
  std::string matrix;
  double baseline_algo_ms = 0.0;
  double ours_algo_ms = 0.0;
  double baseline_kernel_ms = 0.0;
  double ours_kernel_ms = 0.0;
};

/// Print an algorithm table block: for each matrix, the
/// algorithm/kernel latency pair and the speedup column, in the paper's
/// "GBlst | Ours | Speedup" layout.
void print_algo_table(std::ostream& os, const std::string& title,
                      const std::string& algo_name,
                      const std::vector<AlgoRow>& rows);

/// Format "12.3x" style speedup.
[[nodiscard]] std::string speedup_str(double baseline, double ours);

// ---------------------------------------------------------------------
// Kernel micro-bench trajectory (BENCH_kernels.json)
// ---------------------------------------------------------------------
//
// bench_micro_kernels emits a machine-readable record of per-kernel
// throughput for every (kernel, tile dim, threads) cell so each PR
// leaves a comparable perf point behind.  Schema
// ("bitgb-kernel-bench-v3", documented in BUILDING.md): host
// provenance (the SIMD body CPUID picked, hardware threads, fixture)
// and the raw records, each carrying the worker-thread count it ran
// under.

/// One measured cell of the kernel micro-bench.
struct KernelBenchRecord {
  std::string kernel;    ///< e.g. "bmv_bin_bin_bin"
  int tile_dim = 0;      ///< 4/8/16/32 (0 = tile-size-independent)
  double ms_per_op = 0.0;  ///< average wall-clock per kernel call
  double gteps = 0.0;      ///< giga traversed edges (nnz) per second
  int threads = 1;         ///< worker threads the cell ran under
};

/// Write the v3 JSON document.  `simd_backend` / `threads` (the host's
/// hardware width) / `fixture` are provenance.  Throws
/// std::runtime_error naming `path` when the file cannot be opened or
/// written, so a bench never reports an artifact it did not produce.
void write_kernel_bench_json(const std::string& path,
                             const std::string& simd_backend, int threads,
                             const std::string& fixture,
                             const std::vector<KernelBenchRecord>& records);

/// Print the same content as an aligned table (the human-readable twin
/// of the JSON dump).
void print_kernel_bench(std::ostream& os,
                        const std::vector<KernelBenchRecord>& records);

// ---------------------------------------------------------------------
// Query-serving trajectory (BENCH_serving.json)
// ---------------------------------------------------------------------
//
// bench_serving emits one machine-readable record per PR of the serving
// core's behavior: the closed-loop saturation ablation (auto-batched vs
// unbatched QPS over the same request stream — the 64-way amortization
// headline), the open-loop latency profile (p50/p99/p999 against
// Poisson arrivals at several rates, with admission-control shed
// counts), the multi-tenant scenarios (a storm across a 3-graph
// registry, and a mixed stream of all four query kinds, each with
// per-kind counts and the executed wave-width histogram), and the
// cancellation-overhead cell (the batched saturation burst with the
// per-wave deadline token armed vs unarmed, over alternating rounds —
// the guard that keeps the cooperative-cancellation poll off the hot
// path's critical cost), and the persistence roundtrip cell (snapshot
// load vs MatrixMarket re-ingest + prewarm — the warm-restart payoff).
// Schema "bitgb-serving-bench-v6", documented in BUILDING.md.

/// Tail-aware percentile with linear interpolation between order
/// statistics; `p` in [0, 100].  Returns 0 for empty input.
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// One closed-loop saturation cell (all queries submitted at once).
struct ServingSaturation {
  std::string mode;        ///< "batched" / "unbatched"
  int queries = 0;
  double qps = 0.0;        ///< completed / wall-clock
  double mean_wave = 0.0;  ///< mean queries per executed wave
};

/// One open-loop cell: Poisson arrivals at `arrival_qps` against one
/// server configuration.
struct ServingRatePoint {
  std::string mode;        ///< "batched" / "unbatched"
  double arrival_qps = 0.0;
  int offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  double achieved_qps = 0.0;  ///< completed / wall-clock
  double p50_ms = 0.0;        ///< submit-to-reply, kOk queries only
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double mean_wave = 0.0;
};

/// One multi-tenant scenario cell (v2): a closed-loop storm against a
/// registry (multi-graph) or a mixed-kind stream against one graph.
struct ServingScenario {
  std::string name;   ///< "multi-graph" / "mixed-kinds"
  int graphs = 0;     ///< registered graphs the storm spanned
  int queries = 0;
  double qps = 0.0;          ///< completed / wall-clock
  double mean_wave = 0.0;    ///< mean queries per executed wave
  std::uint64_t widest_wave = 0;
  /// Completed count per query kind, keyed by query_kind_name.
  std::vector<std::pair<std::string, std::uint64_t>> completed_by_kind;
  /// Executed wave widths, bucketed [1][2][3-4]...[33-64].
  std::vector<std::uint64_t> wave_width_hist;
};

/// The cancellation-overhead cell (v5): the batched saturation burst
/// run with no deadlines (no CancelToken armed, zero polling) and with
/// a far-future default deadline (every wave arms a token and polls it
/// at every level boundary), once each per round, the two sides
/// alternating which runs first.  The qps fields are each side's
/// median; overhead_pct is the median of the per-round overheads and
/// overhead_pct_spread the distance between their quartiles — the
/// noise band the polling cost is read against.
struct ServingCancellation {
  int rounds = 0;
  double polling_off_qps = 0.0;
  double polling_on_qps = 0.0;
  double overhead_pct = 0.0;
  double overhead_pct_spread = 0.0;
};

/// Summarize paired rounds — round i measured `off_qps[i]` with polling
/// off and `on_qps[i]` with it on — into the cancellation cell.
/// Throws std::invalid_argument when the sides differ in length.
[[nodiscard]] ServingCancellation summarize_cancellation(
    const std::vector<double>& off_qps, const std::vector<double>& on_qps);

/// The persistence roundtrip cell (v4): the warm-restart payoff.  The
/// same graph is brought to serving readiness two ways — re-ingesting
/// the MatrixMarket text (parse + from_coo + prewarm, the cold path
/// every restart used to pay) and loading the snapshot (one sequential
/// checksummed read, caches landing pre-built) — after verifying the
/// loaded graph answers queries bit-identically.
struct ServingPersistence {
  std::uint64_t snapshot_bytes = 0;  ///< on-disk snapshot size
  std::uint64_t mm_bytes = 0;        ///< on-disk MatrixMarket size
  double save_ms = 0.0;              ///< Graph::save (durable write)
  double reingest_ms = 0.0;          ///< parse + build + prewarm
  double load_ms = 0.0;              ///< Graph::load
  [[nodiscard]] double load_speedup() const {
    return load_ms > 0.0 ? reingest_ms / load_ms : 0.0;
  }
};

/// Write the v6 JSON document.  `batched_speedup` is the saturation
/// headline (batched QPS / unbatched QPS); `verified` records that the
/// served answers were checked bit-identical against a serial pass;
/// `scenarios` holds the multi-tenant cells (empty is valid — the
/// array is still emitted, so consumers can rely on the key);
/// `persistence` is the snapshot-vs-reingest roundtrip cell.  Throws
/// std::runtime_error naming `path` when the file cannot be opened or
/// written.
void write_serving_bench_json(const std::string& path,
                              const std::string& graph_name, vidx_t vertices,
                              eidx_t edges, int workers, bool verified,
                              const std::vector<ServingSaturation>& saturation,
                              double batched_speedup,
                              const std::vector<ServingRatePoint>& rates,
                              const std::vector<ServingScenario>& scenarios,
                              const ServingCancellation& cancellation,
                              const ServingPersistence& persistence);

}  // namespace bitgb::bench
