// GraphRegistry — named, prewarmed graphs behind one server.
//
// Production traffic is many datasets, not one: the registry maps graph
// names to GraphSlot entries, each holding a prewarmed gb::Graph plus
// the per-registration metadata the serving layer needs.  Lookups are
// snapshot-consistent: submit() resolves a name to a
// shared_ptr<const GraphSlot> once at admission, the Request carries
// that snapshot, and a concurrent remove() (or a replacing add()) only
// drops the registry's own reference — every in-flight query keeps its
// graph alive through shared ownership and drains safely, after which
// the slot (and its Graph) is freed by the last reply.
//
// Each registration gets a monotonically increasing generation.  A
// re-add under the same name is a NEW slot with a NEW generation, which
// is what invalidates memoized whole-graph results: the kComponents
// memo lives inside the slot, so a stale answer cannot outlive the
// registration that produced it.
#pragma once

#include "algorithms/batched_cc.hpp"
#include "graphblas/graph.hpp"
#include "platform/context.hpp"
#include "platform/fault_injector.hpp"
#include "platform/thread_annotations.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bitgb::serving {

/// Circuit-breaker tuning (policy lives with the Server so one registry
/// can back servers with different tolerances; the STATE lives in the
/// slot, because health is a property of a registration).
/// trip_after <= 0 disables the breaker entirely.
struct CircuitBreakerPolicy {
  /// Consecutive internal errors on one slot before it trips open.
  int trip_after = 3;
  /// How long a tripped slot sheds fast before admitting one re-probe.
  std::chrono::milliseconds cooldown{100};
};

/// Per-slot failure-domain gate.  Closed (the normal state) admits
/// everything; `trip_after` consecutive wave failures open it, and an
/// open breaker sheds instantly — a slot whose graph reliably kills
/// waves (poisoned data, an allocation pattern that exhausts memory)
/// stops consuming worker time and stops timing out its callers.
/// After `cooldown`, exactly one request is admitted as a half-open
/// probe: success closes the breaker, failure re-opens it for another
/// cooldown.  All state is atomic — every worker of every server
/// sharing the slot consults the same breaker.
class CircuitBreaker {
 public:
  using clock = std::chrono::steady_clock;

  /// May this wave execute?  Claims the half-open probe when it says
  /// yes to a cooled-down breaker — the caller MUST then resolve the
  /// probe via record_success / record_failure / abandon_probe.
  [[nodiscard]] bool allow(const CircuitBreakerPolicy& p,
                           clock::time_point now) {
    if (p.trip_after <= 0) return true;
    const auto open_until = open_until_.load(std::memory_order_acquire);
    if (open_until == 0) return true;  // closed
    if (now.time_since_epoch().count() < open_until) return false;  // open
    // Half-open: admit one probe at a time; everyone else sheds until
    // the probe resolves.
    bool expected = false;
    return probe_in_flight_.compare_exchange_strong(
        expected, true, std::memory_order_acq_rel);
  }

  /// A wave on this slot completed OK: close the breaker.
  void record_success() {
    consecutive_.store(0, std::memory_order_relaxed);
    open_until_.store(0, std::memory_order_release);
    probe_in_flight_.store(false, std::memory_order_release);
  }

  /// A wave on this slot died with an internal error.
  void record_failure(const CircuitBreakerPolicy& p, clock::time_point now) {
    const int n = consecutive_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (p.trip_after > 0 && n >= p.trip_after) {
      if (open_until_.exchange(
              (now + p.cooldown).time_since_epoch().count(),
              std::memory_order_acq_rel) == 0) {
        trips_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    probe_in_flight_.store(false, std::memory_order_release);
  }

  /// The admitted probe never executed (e.g. its whole wave was
  /// deadline-shed): release the probe claim, judging nothing.
  void abandon_probe() {
    probe_in_flight_.store(false, std::memory_order_release);
  }

  [[nodiscard]] bool is_open(clock::time_point now) const {
    const auto open_until = open_until_.load(std::memory_order_acquire);
    return open_until != 0 && now.time_since_epoch().count() < open_until;
  }
  [[nodiscard]] int consecutive_failures() const {
    return consecutive_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t trips() const {
    return trips_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> consecutive_{0};
  /// steady_clock ticks-since-epoch until which the breaker is open;
  /// 0 = closed.
  std::atomic<clock::rep> open_until_{0};
  std::atomic<bool> probe_in_flight_{false};
  std::atomic<std::uint64_t> trips_{0};
};

enum class QueryKind : std::uint8_t;  // serving/request.hpp

/// The wave rule: `width` same-slot traversals of one kind go out as one
/// batched wave only when running them one by one would cost at least
/// as much, width × single_ns ≥ wave_ns.  A wave of one is a single
/// run.  A side not yet measured (0 ns) counts as paying, so the first
/// backlog measures the wave.
[[nodiscard]] constexpr bool wave_pays(int width, double single_ns,
                                       double wave_ns) {
  if (width <= 1) return false;
  if (single_ns <= 0.0 || wave_ns <= 0.0) return true;
  return width * single_ns >= wave_ns;
}

/// A running mean of one run shape's wall time, fed by every worker of
/// every server sharing the slot.  Sum and count are separate relaxed
/// atomics: a reader racing a writer may pair the new sum with the old
/// count (or the reverse), an error of one run the wave rule tolerates.
class RunningMean {
 public:
  void add(std::chrono::nanoseconds d) {
    sum_ns_.fetch_add(static_cast<std::uint64_t>(d.count()),
                      std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Mean in ns; 0 until the first run is recorded.
  [[nodiscard]] double ns() const {
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    return n == 0 ? 0.0
                  : static_cast<double>(
                        sum_ns_.load(std::memory_order_relaxed)) /
                        static_cast<double>(n);
  }

 private:
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// What one traversal kind costs on a slot: a single-source run and a
/// batched msbfs / batched_reach wave.  Cancelled and thrown runs are
/// never recorded.
struct TraversalCost {
  RunningMean single;
  RunningMean wave;
  [[nodiscard]] bool wave_pays(int width) const {
    return serving::wave_pays(width, single.ns(), wave.ns());
  }
};

/// One registered graph: the handle, its registration identity, the
/// memoized whole-graph results every same-generation query shares, and
/// the measured traversal costs the wave rule reads.
class GraphSlot {
 public:
  /// A slot co-owns its graph: a fresh registration moves its Graph in,
  /// and the fingerprint-dedup re-add shares the existing slot's (a NEW
  /// generation over the SAME prewarmed graph, so memoized whole-graph
  /// results reset without re-paying the format conversions).
  GraphSlot(std::string name, std::uint64_t generation,
            std::shared_ptr<const gb::Graph> g)
      : name_(std::move(name)), generation_(generation), graph_(std::move(g)) {}

  GraphSlot(const GraphSlot&) = delete;
  GraphSlot& operator=(const GraphSlot&) = delete;

  [[nodiscard]] const gb::Graph& graph() const { return *graph_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// The shared ownership handle — what the registry's dedup re-add
  /// grafts into the replacement slot.
  [[nodiscard]] const std::shared_ptr<const gb::Graph>& shared_graph() const {
    return graph_;
  }

  /// The memoized connected-components labelling: the first kComponents
  /// query on this slot pays one batched_cc over the whole graph (under
  /// the caller's descriptor and workspace); every later query — from
  /// any worker — reads the shared result.  Thread-safe; the memo dies
  /// with the slot, so a registry re-add (new slot, new generation) can
  /// never serve a stale labelling.
  /// If the labelling computation throws (allocator exhaustion, an
  /// injected kernel fault), the attempt is treated as not having
  /// happened: the exception propagates to the failing wave (which
  /// contains it as kInternalError) and the NEXT components query
  /// retries the memo — a poisoned attempt is never cached.
  ///
  /// Double-checked mutex rather than std::call_once: the exceptional
  /// retry is load-bearing here, and ThreadSanitizer's pthread_once
  /// interceptor does not understand an exception unwinding out of the
  /// callable — the once-flag stays locked and every later caller
  /// deadlocks.  A plain mutex + release-published flag has identical
  /// semantics (throw under the lock leaves the memo unset, RAII
  /// releases the lock, the next caller retries) and is clean under
  /// every sanitizer; the ready-path cost is one acquire load.
  [[nodiscard]] const algo::BatchedCcResult& components(
      const Context& ctx, algo::Workspace& ws) const EXCLUDES(cc_mutex_) {
    if (!cc_ready_.load(std::memory_order_acquire)) {
      const MutexLock lock(cc_mutex_);
      if (!cc_ready_.load(std::memory_order_relaxed)) {
        algo::batched_cc(ctx, *graph_, {}, ws, cc_);
        cc_ready_.store(true, std::memory_order_release);
      }
    }
    return published_components();
  }

  /// The slot's failure-domain gate (state only — the trip/cooldown
  /// policy rides with each Server's options).
  [[nodiscard]] CircuitBreaker& breaker() const { return breaker_; }

  /// The measured costs the wave rule compares for traversal kind
  /// `kind` (kBfs or kReach; any other kind throws std::out_of_range).
  /// Like the breaker, shared by every server on the registry.
  [[nodiscard]] TraversalCost& traversal_cost(QueryKind kind) const {
    return traversal_costs_.at(static_cast<std::size_t>(kind));
  }

 private:
  /// The double-checked publication escape, in one audited spot: once
  /// cc_ready_ is observed true with acquire ordering, cc_ was fully
  /// written before the matching release store and is immutable for
  /// the slot's remaining lifetime — the lock-free read cannot race.
  /// The analysis cannot express release/acquire publication, hence
  /// the targeted opt-out on exactly this accessor.
  [[nodiscard]] const algo::BatchedCcResult& published_components() const
      NO_THREAD_SAFETY_ANALYSIS {
    return cc_;
  }

  std::string name_;
  std::uint64_t generation_ = 0;
  std::shared_ptr<const gb::Graph> graph_;
  mutable Mutex cc_mutex_;
  /// Publication flag for cc_: set (release) only after the labelling
  /// is complete, read (acquire) on the lock-free fast path.
  mutable std::atomic<bool> cc_ready_{false};
  mutable algo::BatchedCcResult cc_ GUARDED_BY(cc_mutex_);
  mutable CircuitBreaker breaker_;
  mutable std::array<TraversalCost, 2> traversal_costs_;
};

using GraphRef = std::shared_ptr<const GraphSlot>;

/// What GraphRegistry::recover decided about one manifest entry.
enum class RecoveryStatus {
  kRecovered,    ///< snapshot loaded, validated, and registered
  kMissing,      ///< the manifest names a file that does not exist
  kQuarantined,  ///< the snapshot exists but failed validation — left on
                 ///< disk for forensics, NOT registered, NOT deleted
};

[[nodiscard]] const char* recovery_status_name(RecoveryStatus s);

struct RecoveryEntry {
  std::string name;      ///< registration name from the manifest
  std::string file;      ///< snapshot filename (relative to the dir)
  RecoveryStatus status = RecoveryStatus::kQuarantined;
  std::string error;     ///< what fired, for kMissing/kQuarantined
};

/// The outcome of one recover() pass: per-entry verdicts in manifest
/// order.  Quarantine is a first-class result, not an exception — one
/// corrupt snapshot must never take down the registrations that were
/// durably intact.
struct RecoveryReport {
  std::vector<RecoveryEntry> entries;

  [[nodiscard]] std::size_t recovered() const {
    return count(RecoveryStatus::kRecovered);
  }
  [[nodiscard]] std::size_t quarantined() const {
    return count(RecoveryStatus::kQuarantined);
  }
  [[nodiscard]] std::size_t missing() const {
    return count(RecoveryStatus::kMissing);
  }

 private:
  [[nodiscard]] std::size_t count(RecoveryStatus s) const {
    std::size_t n = 0;
    for (const auto& e : entries) n += (e.status == s) ? 1 : 0;
    return n;
  }
};

/// Concurrent name → GraphSlot map.  add/remove/lookup may race freely;
/// a lookup returns the slot registered at that instant (or null), and
/// holding the returned GraphRef is what keeps the slot alive.
///
/// Durability: save_all() persists every registration as a checksummed
/// snapshot plus a manifest; recover() replays a manifest on a fresh
/// process, quarantining anything torn or corrupted.  The manifest is
/// written LAST and atomically, so a crash mid-save_all leaves the
/// previous manifest pointing at the previous (complete) snapshot set.
class GraphRegistry {
 public:
  GraphRegistry() = default;
  GraphRegistry(const GraphRegistry&) = delete;
  GraphRegistry& operator=(const GraphRegistry&) = delete;

  /// Register `name`, replacing any previous registration (the old slot
  /// stays alive for its in-flight queries).  The graph is prewarmed
  /// (`warm` formats, off the query path) before the slot becomes
  /// visible, so no query pays a one-time conversion.  Returns the new
  /// slot.
  ///
  /// Re-add dedup: when the name is already registered with a graph of
  /// the SAME content fingerprint (and the existing graph already has
  /// every `warm` format materialized), the new slot shares the
  /// existing prewarmed graph instead of prewarming `g` — a new
  /// generation (memoized whole-graph results reset) at zero conversion
  /// cost.  dedup_hits() counts these.
  GraphRef add(std::string name, gb::Graph g,
               gb::FormatSet warm = gb::kBitFormats) EXCLUDES(m_);

  /// Drop `name` from the map.  In-flight queries holding the slot
  /// drain safely; returns false if the name was not registered.
  bool remove(std::string_view name) EXCLUDES(m_);

  /// Snapshot lookup: the slot registered under `name` right now, or
  /// null.  The returned reference stays valid across any later
  /// remove()/add().  Readers take the shared side of the map lock, so
  /// a serving fleet's lookups never serialize against each other —
  /// only against registrations, which are rare and slow anyway.
  [[nodiscard]] GraphRef lookup(std::string_view name) const EXCLUDES(m_);

  [[nodiscard]] std::vector<std::string> names() const EXCLUDES(m_);
  [[nodiscard]] std::size_t size() const EXCLUDES(m_);

  /// Name of the manifest file save_all writes / recover reads.
  static constexpr const char* kManifestFile = "MANIFEST";

  /// Persist every current registration into `dir` (created if absent):
  /// one snapshot file per distinct graph fingerprint
  /// (snap-<fingerprint>.bgbs, carrying the `formats` caches), then the
  /// manifest, atomically and last.  Registration names may not contain
  /// newlines (the manifest is line-oriented) — such names throw
  /// snap::SnapshotError(kMalformed) before anything is written.
  /// `fault` threads the io_* FaultInjector knobs through every write.
  void save_all(const std::string& dir,
                gb::FormatSet formats = gb::kBitFormats,
                FaultInjector* fault = nullptr) const EXCLUDES(m_);

  /// Warm restart: replay `dir`'s manifest, registering every snapshot
  /// that loads and validates cleanly (prewarmed to `warm` — free when
  /// the snapshot carried those formats) and quarantining the rest.  A
  /// missing manifest is an empty report (nothing was ever saved — not
  /// an error).  Never throws on a bad snapshot; the report says what
  /// happened to each entry, and recovered_count()/quarantined_count()
  /// accumulate across calls for ServerStats.
  /// The report is the ONLY place quarantine verdicts surface —
  /// dropping it silently discards corruption diagnoses, hence
  /// [[nodiscard]] (discard deliberately with (void) if you only want
  /// the registrations).
  [[nodiscard]] RecoveryReport recover(
      const std::string& dir,
      gb::FormatSet warm = gb::kBitFormats) EXCLUDES(m_);

  /// Re-adds that reused an existing prewarmed graph (same name, same
  /// fingerprint) instead of re-prewarming.
  [[nodiscard]] std::uint64_t dedup_hits() const {
    return dedup_hits_.load(std::memory_order_relaxed);
  }
  /// Manifest entries recovered / not-recovered over this registry's
  /// lifetime (all recover() calls); kMissing counts as quarantined
  /// here — both mean "manifested but not serving".
  [[nodiscard]] std::uint64_t recovered_count() const {
    return recovered_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t quarantined_count() const {
    return quarantined_.load(std::memory_order_relaxed);
  }

 private:
  mutable SharedMutex m_;
  std::vector<std::pair<std::string, GraphRef>> slots_ GUARDED_BY(m_);
  std::uint64_t next_generation_ GUARDED_BY(m_) = 1;
  std::atomic<std::uint64_t> dedup_hits_{0};
  std::atomic<std::uint64_t> recovered_{0};
  std::atomic<std::uint64_t> quarantined_{0};
};

}  // namespace bitgb::serving
