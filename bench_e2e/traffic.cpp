// Serving traffic: the open-loop and closed-loop load generators and the
// reply oracle.
#include "e2e.hpp"

#include "algorithms/bfs.hpp"
#include "serving/server.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <random>
#include <thread>

namespace e2e {

namespace gb = bitgb::gb;
namespace serving = bitgb::serving;

namespace {

/// Every serving request carries this deadline, so cancellation polling
/// is part of the measured system.
constexpr std::chrono::seconds kDeadline{1};

/// Replies kept for the oracle: the first few of each wave shape (one
/// request wide or wider) — so multi-request waves are always checked —
/// and every kStride-th request besides.
class Sampler {
 public:
  bool take(std::uint64_t id, int batch_width) {
    int& kept = kept_[batch_width > 1 ? 1 : 0];
    if (kept < kFirstPerShape || id % kStride == 0) {
      ++kept;
      return true;
    }
    return false;
  }

 private:
  static constexpr int kFirstPerShape = 3;
  static constexpr std::uint64_t kStride = 128;
  int kept_[2] = {0, 0};
};

/// One generator's view of a serving window: submits, harvests replies
/// in submission order, records every request.
class Generator {
 public:
  Generator(serving::Server& server, const std::string& name, TraceLog& trace,
            Clock::time_point t0)
      : server_(server), name_(name), trace_(trace), t0_(t0) {}

  void submit(vidx_t source, Clock::time_point due) {
    RequestRecord rec;
    rec.id = records_.size() + 1;
    rec.source = source;
    const Clock::time_point sent = Clock::now();
    std::future<Reply> fut =
        server_.submit(name_, serving::QueryKind::kBfs, source, sent + kDeadline);
    const Clock::time_point back = Clock::now();
    rec.due_ms = ms_between(t0_, due);
    rec.sent_ms = ms_between(t0_, sent);
    rec.submit_us = 1000.0 * ms_between(sent, back);
    trace_.span("submit", "serving", sent, back, TraceLog::kGenerator, rec.id);
    pending_.push_back({std::move(fut), records_.size()});
    records_.push_back(rec);
  }

  /// Harvests replies that are ready by `until`, oldest first.
  void harvest_until(Clock::time_point until) {
    while (!pending_.empty() &&
           pending_.front().fut.wait_until(until) == std::future_status::ready) {
      harvest_front();
    }
  }

  void harvest_front() {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    Reply reply = p.fut.get();
    RequestRecord& rec = records_[p.record];
    rec.status = reply.status;
    rec.completed_ms = ms_between(t0_, reply.completed);
    rec.queue_ms = reply.queue_ms;
    rec.batch_width = reply.batch_width;
    if (trace_.enabled() && rec.ok()) {
      const auto at = [this](double ms) {
        return t0_ + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
      };
      const double started = rec.sent_ms + rec.queue_ms;
      trace_.span("queue", "serving", at(rec.sent_ms), at(started),
                  TraceLog::kGenerator, rec.id);
      trace_.span("execute", "serving", at(started), reply.completed,
                  TraceLog::kGenerator, rec.id);
    }
    if (rec.ok() && sampler_.take(rec.id, rec.batch_width)) {
      samples_.push_back({rec.source, std::move(reply)});
    }
  }

  [[nodiscard]] bool idle() const { return pending_.empty(); }
  std::vector<RequestRecord>& records() { return records_; }
  std::vector<SampledReply>& samples() { return samples_; }

 private:
  struct Pending {
    std::future<Reply> fut;
    std::size_t record;
  };
  serving::Server& server_;
  const std::string& name_;
  TraceLog& trace_;
  const Clock::time_point t0_;
  std::deque<Pending> pending_;
  std::vector<RequestRecord> records_;
  std::vector<SampledReply> samples_;
  Sampler sampler_;
};

}  // namespace

bitgb::Context worker_context() { return bitgb::Context{}.with_threads(1); }

void TrafficResult::append(TrafficResult&& other) {
  records.insert(records.end(), other.records.begin(), other.records.end());
  samples.insert(samples.end(), std::make_move_iterator(other.samples.begin()),
                 std::make_move_iterator(other.samples.end()));
  window_s += other.window_s;
  kernel_ms += other.kernel_ms;
}

double register_graph(const GraphFiles& files, Setup& setup,
                      serving::GraphRegistry& registry) {
  const Clock::time_point start = Clock::now();
  (void)registry.add(files.names[0], std::move(setup.serve[0]));
  return ms_between(start, Clock::now());
}

TrafficResult run_traffic(const TrafficPlan& plan, const std::string& name,
                          const gb::Graph& graph, serving::GraphRegistry& registry,
                          std::uint64_t seed, TraceLog& trace,
                          bitgb::KernelTimeSink* sink, bitgb::FaultInjector* fault) {
  serving::ServerOptions opts;
  opts.workers = plan.workers;
  opts.context = worker_context().with_timer(sink).with_fault(fault);
  serving::Server server(registry, opts);

  // Warm-up outside the window: one request per worker fills the
  // workers' workspaces.
  {
    std::vector<std::future<Reply>> warm;
    for (int i = 0; i < plan.workers; ++i) {
      warm.push_back(server.submit(name, serving::QueryKind::kBfs, 0));
    }
    for (auto& f : warm) (void)f.get();
  }
  if (sink != nullptr) sink->reset();

  std::mt19937_64 source_rng(mix_seed(seed ^ 0x7157ULL));
  const auto next_source = [&] {
    return static_cast<vidx_t>(source_rng() %
                               static_cast<std::uint64_t>(graph.num_vertices()));
  };
  const Clock::time_point t0 = Clock::now();
  Generator gen(server, name, trace, t0);
  const auto at = [t0](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };

  if (plan.open_loop) {
    // A Poisson process conditioned on its arrival count, so every run
    // offers exactly rate x seconds requests: its arrival times are
    // sorted uniform points of the window.
    const auto count = static_cast<std::size_t>(
        std::max(1LL, std::llround(plan.rate_qps * plan.seconds)));
    std::mt19937_64 rng(mix_seed(seed ^ 0xa771ULL));
    std::uniform_real_distribution<double> uniform(0.0, plan.seconds);
    std::vector<double> due(count);
    for (double& d : due) d = uniform(rng);
    std::sort(due.begin(), due.end());
    for (const double d : due) {
      const Clock::time_point when = at(d);
      gen.harvest_until(when);
      std::this_thread::sleep_until(when);
      gen.submit(next_source(), when);
    }
    while (!gen.idle()) gen.harvest_front();
  } else {
    const Clock::time_point end = at(plan.seconds);
    for (int i = 0; i < plan.outstanding; ++i) gen.submit(next_source(), Clock::now());
    while (!gen.idle()) {
      gen.harvest_front();
      if (Clock::now() < end) gen.submit(next_source(), Clock::now());
    }
  }
  TrafficResult out;
  double last_ms = 0.0;
  for (const RequestRecord& r : gen.records()) last_ms = std::max(last_ms, r.completed_ms);
  out.window_s = last_ms / 1000.0;
  server.shutdown();
  if (sink != nullptr) out.kernel_ms = sink->ms();
  out.records = std::move(gen.records());
  out.samples = std::move(gen.samples());
  return out;
}

bool reply_matches(const gb::Graph& g, const SampledReply& s, std::string* why) {
  const Reply& r = s.reply;
  const auto mismatch = [&](const std::string& what) {
    if (why != nullptr) {
      *why = what + " (source " + std::to_string(s.source) + ", wave width " +
             std::to_string(r.batch_width) + ")";
    }
    return false;
  };
  if (r.status != Status::kOk) {
    return mismatch(std::string("reply status ") + serving::status_name(r.status));
  }
  if (r.levels != bitgb::algo::bfs(worker_context(), g, {s.source}).levels) {
    return mismatch("bfs reply differs from the serial oracle");
  }
  return true;
}

}  // namespace e2e
