// Statistics, host calibration, the report, and the in-memory span log.
#include "e2e.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace e2e {

namespace {

/// The calibration loop's time on the reference host (a 4-vCPU x86-64
/// Xeon VM) when the benchmark was set up, ms: the fastest of
/// host_slowdown()'s samples.  The fastest, not the median, because
/// interference only ever slows a sample.
constexpr double kReferenceCalibrationMs = 2.2;
constexpr int kCalibrationSamples = 5;

std::atomic<std::uint64_t> calibration_sink{0};

/// One sample of the calibration loop, ms: a dependent chain of
/// word-wise bit arithmetic (xorshift and popcount, as the B2SR kernels
/// do).  It touches no memory, so the cache state a phase leaves behind
/// does not change its time: a loop of dependent loads did, and tracked
/// the host's speed worse.
double calibration_sample_ms() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL ^ calibration_sink.load(std::memory_order_relaxed);
  std::uint64_t acc = 0;
  for (int i = 0; i < 600'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<std::uint64_t>(std::popcount(x));
  }
  const double ms = ms_between(start, Clock::now());
  calibration_sink.store(acc, std::memory_order_relaxed);
  return ms;
}

}  // namespace

double host_slowdown() {
  std::vector<double> samples;
  for (int i = 0; i < kCalibrationSamples; ++i) samples.push_back(calibration_sample_ms());
  return *std::min_element(samples.begin(), samples.end()) / kReferenceCalibrationMs;
}

double host_slowdown_all_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return host_slowdown();
  double sum = 0.0;
  int cpus = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    sum += host_slowdown();
    ++cpus;
  }
  if (sched_setaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("cannot restore the CPU affinity after calibrating");
  }
  return cpus > 0 ? sum / cpus : host_slowdown();
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double tail_rank(std::size_t n) {
  if (n == 0) return 50.0;
  const double highest =
      100.0 * (1.0 - static_cast<double>(kTailSamples) / static_cast<double>(n));
  return std::clamp(highest, 50.0, 99.0);
}

Tail tail(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  t.rank = tail_rank(xs.size());
  t.value = percentile(std::move(xs), t.rank);
  return t;
}

void Report::fail(const std::string& why) {
  correct = false;
  notes.push_back("FAIL: " + why);
  std::fprintf(stderr, "bench_e2e: FAIL: %s\n", why.c_str());
}

void add_metric(std::vector<Metric>& into, std::string name, double value,
                std::string unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  into.push_back({std::move(name), value, std::move(unit)});
}

void TraceLog::span(std::string name, const char* layer,
                    Clock::time_point begin, Clock::time_point end, int lane,
                    std::uint64_t request) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), layer, begin, end, lane, request});
}

std::size_t TraceLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void TraceLog::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  const std::lock_guard<std::mutex> lock(mu_);
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  char buf[160];
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  const char* sep = "";
  for (const Span& s : spans_) {
    // Names are built from fixed identifiers and graph names; neither
    // holds characters that need JSON escaping.
    if (s.request == 0) {
      std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d",
                    us(s.begin), us(s.end) - us(s.begin), s.lane);
      out << sep << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
          << "\",\"ph\":\"X\"," << buf << "}";
      sep = ",\n";
      continue;
    }
    // Request spans overlap across requests, so they are async events
    // keyed by the request id: one track per request.
    for (const bool open : {true, false}) {
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"%s\",\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":%d",
                    open ? "b" : "e", static_cast<unsigned long long>(s.request),
                    us(open ? s.begin : s.end), s.lane);
      out << sep << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer << "\","
          << buf << ",\"args\":{\"request\":" << s.request << "}}";
      sep = ",\n";
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace e2e
