// Bounded MPMC request queue with kind-segregated batch pops.
//
// The admission side (any number of submitter threads) pushes with
// try_push, which refuses — instead of blocking — when the queue is at
// capacity: overload sheds at the door with a bounded queue depth, so
// queueing delay stays bounded under any arrival rate (the shed-on-full
// half of the server's admission control).
//
// The execution side (the serving workers) pops with pop_batch, which
// returns up to max_batch requests *of one kind* in a single lock hold.
// Pending requests wait in one FIFO per QueryKind (all sharing the
// capacity bound), so a worker's pop IS the auto-batcher's admission
// step, and it fixes the wave width: a traversal run that accumulated
// while every worker was busy is handed over whole only when the wave
// rule (serving/registry.hpp wave_pays) says a wave of that width pays
// on the head request's slot; otherwise one request is popped and the
// rest stay for the next free worker, so a run too narrow to pay is
// spread across workers instead of serialized behind one.  Across
// kinds, pop_batch serves the FIFO whose head request has waited
// longest.  A popped run may span graphs — the batcher partitions it
// per graph slot before executing.
#pragma once

#include "platform/thread_annotations.hpp"
#include "serving/request.hpp"

#include <array>
#include <cstddef>
#include <deque>
#include <vector>

namespace bitgb::serving {

/// What happened to a try_push — the two refusals are distinct because
/// the server sheds them with different statuses (kShedQueueFull vs
/// kShedShutdown).
enum class PushOutcome : std::uint8_t {
  kAccepted,  ///< enqueued; a worker now owns fulfilling the promise
  kFull,      ///< refused: queue at capacity (request left with caller)
  kClosed,    ///< refused: close() already ran (request left with caller)
};

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Admission: enqueue if open and total depth < capacity.  On
  /// refusal (kFull/kClosed) `r` is left untouched — the promise stays
  /// with the caller to shed.
  [[nodiscard]] PushOutcome try_push(Request&& r) EXCLUDES(m_);

  /// Pop up to max_batch requests of one kind, appended to `out`
  /// (which is cleared first): a traversal run only if a wave of its
  /// width pays, else one; one pagerank; a whole components run.
  /// Blocks while the queue is empty and open; returns the number
  /// popped, 0 only when closed and drained.
  std::size_t pop_batch(std::vector<Request>& out, int max_batch)
      EXCLUDES(m_);

  /// Close admission.  Pending requests still drain through pop_batch;
  /// once empty, pop_batch returns 0 to every worker.
  void close() EXCLUDES(m_);

 private:
  [[nodiscard]] std::size_t total_locked() const REQUIRES(m_) {
    std::size_t total = 0;
    for (const auto& q : kinds_) total += q.size();
    return total;
  }

  const std::size_t capacity_;
  Mutex m_;
  CondVar cv_;
  /// Pending requests, one FIFO per QueryKind.
  std::array<std::deque<Request>, kNumQueryKinds> kinds_ GUARDED_BY(m_);
  bool closed_ GUARDED_BY(m_) = false;
};

}  // namespace bitgb::serving
