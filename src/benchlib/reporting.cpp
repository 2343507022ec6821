#include "benchlib/reporting.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace bitgb::bench {

int density_bucket(double density) {
  if (density <= 0.0) return -7;
  const int b = static_cast<int>(std::floor(std::log10(density)));
  return std::clamp(b, -7, -1);
}

std::string bucket_label(int bucket) {
  // Appended rather than `"E" + std::to_string(bucket)`: gcc 12 at -O3
  // raises a false -Wrestrict on that operator+ overload.
  std::string label = "E";
  label += std::to_string(bucket);
  return label;
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

void print_sweep_figure(std::ostream& os, const std::string& title,
                        const std::vector<SweepPoint>& points) {
  os << "== " << title << " ==\n";
  os << "geomean speedup over baseline, by nnz-density decade\n";
  os << std::left << std::setw(10) << "tile";
  for (int b = -7; b <= -1; ++b) {
    os << std::right << std::setw(9) << bucket_label(b);
  }
  os << std::right << std::setw(9) << "avg" << std::setw(10) << "max"
     << "  max@matrix\n";

  for (const int dim : {4, 8, 16, 32}) {
    std::map<int, std::vector<double>> buckets;
    std::vector<double> all;
    double max_speedup = 0.0;
    std::string max_matrix;
    for (const auto& p : points) {
      if (p.tile_dim != dim || p.speedup <= 0.0) continue;
      buckets[density_bucket(p.density)].push_back(p.speedup);
      all.push_back(p.speedup);
      if (p.speedup > max_speedup) {
        max_speedup = p.speedup;
        max_matrix = p.matrix;
      }
    }
    os << std::left << std::setw(10)
       << (std::to_string(dim) + "x" + std::to_string(dim));
    for (int b = -7; b <= -1; ++b) {
      const auto it = buckets.find(b);
      if (it == buckets.end()) {
        os << std::right << std::setw(9) << "-";
      } else {
        os << std::right << std::setw(9) << std::fixed
           << std::setprecision(2) << geomean(it->second);
      }
    }
    os << std::right << std::setw(9) << std::fixed << std::setprecision(2)
       << geomean(all) << std::setw(9) << std::setprecision(1)
       << max_speedup << "x  " << max_matrix << "\n";
  }
  os << "\n";
}

void write_sweep_csv(const std::string& path,
                     const std::vector<SweepPoint>& points) {
  std::ofstream f(path);
  if (!f) return;  // CSV is best-effort; the printed figure is canonical
  f << "matrix,density,tile_dim,speedup\n";
  for (const auto& p : points) {
    f << p.matrix << ',' << p.density << ',' << p.tile_dim << ','
      << p.speedup << '\n';
  }
}

std::string speedup_str(double baseline, double ours) {
  if (ours <= 0.0) return "-";
  const double s = baseline / ours;
  std::ostringstream ss;
  if (s >= 10.0) {
    ss << static_cast<long long>(std::llround(s)) << "x";
  } else {
    ss << std::fixed << std::setprecision(1) << s << "x";
  }
  return ss.str();
}

namespace {

/// The trajectory writers' open/close: a file that cannot be opened or
/// written is an error, never a silently missing artifact.
std::ofstream open_for_write(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  return f;
}

void close_checked(std::ofstream& f, const std::string& path) {
  f.close();
  if (!f) throw std::runtime_error("failed writing " + path);
}

}  // namespace

void write_kernel_bench_json(const std::string& path,
                             const std::string& simd_backend, int threads,
                             const std::string& fixture,
                             const std::vector<KernelBenchRecord>& records) {
  std::ofstream f = open_for_write(path);
  f << "{\n";
  f << "  \"schema\": \"bitgb-kernel-bench-v3\",\n";
  f << "  \"host\": {\"simd_backend\": \"" << simd_backend
    << "\", \"threads\": " << threads << "},\n";
  f << "  \"fixture\": \"" << fixture << "\",\n";
  f << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    f << "    {\"kernel\": \"" << r.kernel << "\", \"tile_dim\": "
      << r.tile_dim << ", \"threads\": " << r.threads
      << ", \"ms_per_op\": " << r.ms_per_op << ", \"gteps\": " << r.gteps
      << '}' << (i + 1 < records.size() ? "," : "") << '\n';
  }
  f << "  ]\n";
  f << "}\n";
  close_checked(f, path);
}

void print_kernel_bench(std::ostream& os,
                        const std::vector<KernelBenchRecord>& records) {
  os << std::left << std::setw(26) << "kernel" << std::setw(6) << "dim"
     << std::right << std::setw(9) << "threads" << std::setw(12) << "ms/op"
     << std::setw(10) << "GTEPS" << "\n";
  for (const auto& r : records) {
    os << std::left << std::setw(26) << r.kernel << std::setw(6) << r.tile_dim
       << std::right << std::setw(9) << r.threads << std::setw(12)
       << std::fixed << std::setprecision(4) << r.ms_per_op << std::setw(10)
       << std::setprecision(3) << r.gteps << "\n";
  }
}

void print_algo_table(std::ostream& os, const std::string& title,
                      const std::string& algo_name,
                      const std::vector<AlgoRow>& rows) {
  os << "== " << title << " : " << algo_name << " ==\n";
  os << std::left << std::setw(24) << "matrix" << std::setw(10) << "level"
     << std::right << std::setw(12) << "GBlst(ms)" << std::setw(12)
     << "Ours(ms)" << std::setw(10) << "Speedup" << "\n";
  for (const auto& r : rows) {
    os << std::left << std::setw(24) << r.matrix << std::setw(10)
       << "algorithm" << std::right << std::setw(12) << std::fixed
       << std::setprecision(3) << r.baseline_algo_ms << std::setw(12)
       << r.ours_algo_ms << std::setw(10)
       << speedup_str(r.baseline_algo_ms, r.ours_algo_ms) << "\n";
    os << std::left << std::setw(24) << "" << std::setw(10) << "kernel"
       << std::right << std::setw(12) << std::fixed << std::setprecision(3)
       << r.baseline_kernel_ms << std::setw(12) << r.ours_kernel_ms
       << std::setw(10)
       << speedup_str(r.baseline_kernel_ms, r.ours_kernel_ms) << "\n";
  }
  os << "\n";
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

namespace {

/// Median and quartile spread (q75 - q25) of per-round values.
std::pair<double, double> median_and_spread(const std::vector<double>& xs) {
  return {percentile(xs, 50.0), percentile(xs, 75.0) - percentile(xs, 25.0)};
}

/// A JSON array of wave-width bucket counts.
void write_hist(std::ostream& f, const std::vector<std::uint64_t>& hist) {
  f << '[';
  for (std::size_t b = 0; b < hist.size(); ++b) {
    f << hist[b] << (b + 1 < hist.size() ? ", " : "");
  }
  f << ']';
}

}  // namespace

ServingSaturationAblation summarize_saturation(
    const std::vector<ServingSaturation>& unbatched,
    const std::vector<ServingSaturation>& batched) {
  if (unbatched.size() != batched.size()) {
    throw std::invalid_argument(
        "summarize_saturation: unbatched and batched rounds differ");
  }
  const auto medians = [](const std::vector<ServingSaturation>& rounds) {
    ServingSaturation cell;
    std::vector<double> qps;
    std::vector<double> wave;
    for (const ServingSaturation& r : rounds) {
      cell.mode = r.mode;
      cell.queries = r.queries;
      qps.push_back(r.qps);
      wave.push_back(r.mean_wave);
    }
    cell.qps = percentile(qps, 50.0);
    cell.mean_wave = percentile(wave, 50.0);
    return cell;
  };
  std::vector<double> speedup;
  for (std::size_t i = 0; i < unbatched.size(); ++i) {
    speedup.push_back(unbatched[i].qps > 0.0
                          ? batched[i].qps / unbatched[i].qps
                          : 0.0);
  }
  ServingSaturationAblation cell;
  cell.rounds = static_cast<int>(unbatched.size());
  cell.unbatched = medians(unbatched);
  cell.batched = medians(batched);
  std::tie(cell.batched_speedup, cell.batched_speedup_spread) =
      median_and_spread(speedup);
  return cell;
}

void write_serving_bench_json(const std::string& path,
                              const std::string& graph_name, vidx_t vertices,
                              eidx_t edges, int workers, bool verified,
                              const ServingSaturationAblation& saturation,
                              const std::vector<ServingRatePoint>& rates,
                              const std::vector<ServingScenario>& scenarios,
                              const ServingPersistence& persistence) {
  std::ofstream f = open_for_write(path);
  f << "{\n";
  f << "  \"schema\": \"bitgb-serving-bench-v8\",\n";
  f << "  \"graph\": {\"name\": \"" << graph_name
    << "\", \"vertices\": " << vertices << ", \"edges\": " << edges << "},\n";
  f << "  \"workers\": " << workers << ",\n";
  f << "  \"verified_bit_identical\": " << (verified ? "true" : "false")
    << ",\n";
  f << "  \"saturation\": [\n";
  for (const ServingSaturation* s :
       {&saturation.unbatched, &saturation.batched}) {
    f << "    {\"mode\": \"" << s->mode << "\", \"queries\": " << s->queries
      << ", \"qps\": " << s->qps << ", \"mean_wave\": " << s->mean_wave << '}'
      << (s == &saturation.unbatched ? "," : "") << '\n';
  }
  f << "  ],\n";
  f << "  \"saturation_rounds\": " << saturation.rounds << ",\n";
  f << "  \"saturation_batched_speedup\": " << saturation.batched_speedup
    << ",\n";
  f << "  \"saturation_batched_speedup_spread\": "
    << saturation.batched_speedup_spread << ",\n";
  f << "  \"persistence\": {\"snapshot_bytes\": " << persistence.snapshot_bytes
    << ", \"mm_bytes\": " << persistence.mm_bytes
    << ", \"save_ms\": " << persistence.save_ms
    << ", \"reingest_ms\": " << persistence.reingest_ms
    << ", \"load_ms\": " << persistence.load_ms
    << ", \"load_speedup\": " << persistence.load_speedup() << "},\n";
  f << "  \"open_loop\": [\n";
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto& r = rates[i];
    f << "    {\"mode\": \"" << r.mode
      << "\", \"arrival_qps\": " << r.arrival_qps
      << ", \"offered\": " << r.offered << ", \"completed\": " << r.completed
      << ", \"shed_queue_full\": " << r.shed_queue_full
      << ", \"shed_deadline\": " << r.shed_deadline
      << ", \"achieved_qps\": " << r.achieved_qps
      << ", \"latency_ms\": {\"p50\": " << r.p50_ms
      << ", \"p99\": " << r.p99_ms << ", \"p999\": " << r.p999_ms
      << "}, \"mean_wave\": " << r.mean_wave << ", \"wave_width_hist\": ";
    write_hist(f, r.wave_width_hist);
    f << '}' << (i + 1 < rates.size() ? "," : "") << '\n';
  }
  f << "  ],\n";
  f << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& s = scenarios[i];
    f << "    {\"name\": \"" << s.name << "\", \"graphs\": " << s.graphs
      << ", \"queries\": " << s.queries << ", \"qps\": " << s.qps
      << ", \"mean_wave\": " << s.mean_wave
      << ", \"widest_wave\": " << s.widest_wave
      << ",\n     \"completed_by_kind\": {";
    for (std::size_t k = 0; k < s.completed_by_kind.size(); ++k) {
      f << '"' << s.completed_by_kind[k].first
        << "\": " << s.completed_by_kind[k].second
        << (k + 1 < s.completed_by_kind.size() ? ", " : "");
    }
    f << "},\n     \"wave_width_hist\": ";
    write_hist(f, s.wave_width_hist);
    f << '}' << (i + 1 < scenarios.size() ? "," : "") << '\n';
  }
  f << "  ]\n";
  f << "}\n";
  close_checked(f, path);
}

}  // namespace bitgb::bench
