#include "serving/queue.hpp"

#include <algorithm>

namespace bitgb::serving {

namespace {

/// How many of the `run` requests heading one kind's FIFO a pop takes:
/// a traversal run goes whole only when the wave rule says a wave of
/// that width pays on the head request's slot, else one request; a
/// pagerank runs alone (nothing coalesces); a components run goes whole
/// (one memo read answers it).
std::size_t pop_width(const Request& head, std::size_t run) {
  if (head.kind == QueryKind::kPagerank) return 1;
  if (head.kind == QueryKind::kComponents) return run;
  const TraversalCost& cost = head.slot->traversal_cost(head.kind);
  return cost.wave_pays(static_cast<int>(run)) ? run : 1;
}

}  // namespace

RequestQueue::RequestQueue(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

PushOutcome RequestQueue::try_push(Request&& r) {
  {
    const MutexLock lk(m_);
    if (closed_) return PushOutcome::kClosed;
    if (total_locked() >= capacity_) return PushOutcome::kFull;
    kinds_[static_cast<std::size_t>(r.kind)].push_back(std::move(r));
  }
  // One waiter per push: a batch pop drains several pushes, so waking
  // all workers for every arrival would only stampede the mutex.
  cv_.notify_one();
  return PushOutcome::kAccepted;
}

std::size_t RequestQueue::pop_batch(std::vector<Request>& out, int max_batch) {
  out.clear();
  const auto take = static_cast<std::size_t>(std::max(1, max_batch));
  const MutexLock lk(m_);
  // Explicit wait loop (not a predicate lambda): the thread-safety
  // analysis sees the guarded reads happen with m_ held, which a
  // lambda body would not convey.
  while (!closed_ && total_locked() == 0) cv_.wait(m_);
  if (total_locked() == 0) return 0;  // closed and drained

  // Serve the kind whose head has waited longest (FIFO across kinds);
  // at least one FIFO is non-empty here.
  std::deque<Request>* q = nullptr;
  for (auto& fifo : kinds_) {
    if (fifo.empty()) continue;
    if (q == nullptr || fifo.front().submitted < q->front().submitted) {
      q = &fifo;
    }
  }
  const std::size_t count = pop_width(q->front(), std::min(take, q->size()));
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(std::move(q->front()));
    q->pop_front();
  }
  return count;
}

void RequestQueue::close() {
  {
    const MutexLock lk(m_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::depth() const {
  const MutexLock lk(m_);
  return total_locked();
}

}  // namespace bitgb::serving
