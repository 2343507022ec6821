#include "platform/parallel.hpp"

#include "platform/thread_annotations.hpp"

#include <atomic>
#include <thread>
#include <vector>

namespace bitgb {

namespace {

thread_local bool t_in_pool_work = false;

/// Lazily-spawned worker pool, shared by every caller.  One job runs at
/// a time (parallel_for is never nested — in_parallel_region() degrades
/// nested calls to serial, and concurrent callers queue on job_mutex_);
/// participants — the calling thread plus the first width-1 workers —
/// steal fixed-size chunks off a shared atomic cursor until the range
/// is drained.  The job *width* is a per-call argument: the pool holds
/// no process-global thread-count state.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  void run(std::int64_t begin, std::int64_t end, std::int64_t chunk,
           void (*body)(const void*, std::int64_t, std::int64_t),
           const void* ctx, int width) EXCLUDES(job_mutex_, m_) {
    // Empty or inverted ranges dispatch nothing.  Without this guard an
    // end < begin call drives `helpers` (and with it participants_ /
    // busy_) negative, and done_cv_.wait below blocks forever on a
    // busy_ count that can never reach zero.
    if (end <= begin) return;
    const MutexLock job_lock(job_mutex_);
    const int helpers = static_cast<int>(std::max<std::int64_t>(
        0, std::min<std::int64_t>(width - 1, end - begin)));
    ensure_workers(helpers);
    {
      const MutexLock lk(m_);
      body_ = body;
      ctx_ = ctx;
      end_ = end;
      chunk_ = chunk < 1 ? 1 : chunk;
      next_.store(begin, std::memory_order_relaxed);
      participants_ = std::min(helpers, static_cast<int>(workers_.size()));
      busy_ = participants_;
      ++generation_;
    }
    cv_.notify_all();
    t_in_pool_work = true;
    work();
    t_in_pool_work = false;
    const MutexLock lk(m_);
    while (busy_ != 0) done_cv_.wait(m_);
  }

 private:
  WorkerPool() = default;

  ~WorkerPool() EXCLUDES(job_mutex_, m_) {
    {
      const MutexLock lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    // Joining under job_mutex_ keeps the workers_ container story
    // consistent for the analysis; workers never touch job_mutex_, so
    // holding it across the joins cannot deadlock.
    const MutexLock job_lock(job_mutex_);
    for (auto& w : workers_) w.join();
  }

  void ensure_workers(int target) REQUIRES(job_mutex_) {
    while (static_cast<int>(workers_.size()) < target) {
      const int index = static_cast<int>(workers_.size());
      workers_.emplace_back([this, index] { worker_loop(index); });
    }
  }

  /// The chunk-stealing inner loop, deliberately OUTSIDE the analysis:
  /// it reads the job descriptor (body_/ctx_/end_/chunk_) lock-free.
  /// That is race-free by the job protocol, not by a capability the
  /// analysis can see: the descriptor only changes inside run() while
  /// job_mutex_ serializes whole jobs AND busy_ == 0 says every
  /// participant of the previous job has left work(); participants
  /// enter work() only after observing the new generation under m_, so
  /// the descriptor writes happen-before every lock-free read.  next_
  /// is an atomic cursor and needs no lock by construction.
  void work() NO_THREAD_SAFETY_ANALYSIS {
    for (;;) {
      const std::int64_t lo =
          next_.fetch_add(chunk_, std::memory_order_relaxed);
      if (lo >= end_) return;
      body_(ctx_, lo, std::min(end_, lo + chunk_));
    }
  }

  void worker_loop(int index) EXCLUDES(m_) {
    t_in_pool_work = true;
    std::uint64_t seen = 0;
    for (;;) {
      {
        const MutexLock lk(m_);
        while (!stop_ && generation_ == seen) cv_.wait(m_);
        if (stop_) return;
        seen = generation_;
        if (index >= participants_) continue;  // not part of this job
      }
      work();
      {
        const MutexLock lk(m_);
        if (--busy_ == 0) done_cv_.notify_all();
      }
    }
  }

  Mutex job_mutex_;  ///< serializes whole jobs; held across ensure_workers
  Mutex m_ ACQUIRED_AFTER(job_mutex_);  ///< guards the job fields below
  CondVar cv_;
  CondVar done_cv_;
  std::vector<std::thread> workers_ GUARDED_BY(job_mutex_);
  /// Job descriptor: written under m_ in run(), read lock-free in
  /// work() under the quiescence protocol documented there.
  void (*body_)(const void*, std::int64_t, std::int64_t)
      GUARDED_BY(m_) = nullptr;
  const void* ctx_ GUARDED_BY(m_) = nullptr;
  std::int64_t end_ GUARDED_BY(m_) = 0;
  std::int64_t chunk_ GUARDED_BY(m_) = 1;
  std::atomic<std::int64_t> next_{0};
  std::uint64_t generation_ GUARDED_BY(m_) = 0;
  int participants_ GUARDED_BY(m_) = 0;
  int busy_ GUARDED_BY(m_) = 0;
  bool stop_ GUARDED_BY(m_) = false;
};

}  // namespace

int hardware_width() noexcept {
  static const int width = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }();
  return width;
}

namespace detail {

bool in_parallel_region() noexcept { return t_in_pool_work; }

void pool_run(std::int64_t begin, std::int64_t end, std::int64_t chunk,
              void (*body)(const void*, std::int64_t, std::int64_t),
              const void* ctx, int width) {
  WorkerPool::instance().run(begin, end, chunk, body, ctx, width);
}

}  // namespace detail

}  // namespace bitgb
