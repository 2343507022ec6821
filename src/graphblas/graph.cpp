#include "graphblas/graph.hpp"

#include "core/pack.hpp"
#include "core/sampling.hpp"
#include "sparse/convert.hpp"
#include "sparse/snapshot.hpp"

#include <stdexcept>
#include <string>

namespace bitgb::gb {

namespace {

/// Private `built` bits for the caches that are not public formats: the
/// two lazily-decided scalars and the no-in-edge list.  They live above
/// bit 8 (kFmtDegrees) and are masked out of formats().
constexpr FormatSet kBuiltNoInEdges = 1u << 29;
constexpr FormatSet kBuiltTileDim = 1u << 30;
constexpr FormatSet kBuiltFingerprint = 1u << 31;
constexpr FormatSet kPublicFormatMask = kAllFormats;

/// The §III-C advisor's sample: Algorithm 1 rows and RNG seed, fixed so
/// a graph's tile dim is reproducible.
constexpr vidx_t kSampleRows = 256;
constexpr std::uint64_t kSampleSeed = 0x5eed;

/// The one audited escape for the whole lazy cache: double-checked
/// publication.  The fast path reads `built` with acquire order and, on
/// a set bit, reads the slot with NO lock — safe because the slot was
/// fully constructed before the release fetch_or that set the bit, and
/// is immutable afterwards.  Thread Safety Analysis cannot express
/// "guarded until published, lock-free after", so the helper opts out;
/// every slot access in this translation unit funnels through here.
///
/// A build() that throws leaves the slot empty and the bit clear — the
/// next caller retries, matching the std::call_once semantics this
/// replaces (without TSan's pthread_once exceptional-retry deadlock).
template <typename T, typename Build>
const T& materialize(std::atomic<FormatSet>& built, FormatSet bit,
                     Mutex& mu, std::optional<T>& slot,
                     Build&& build) NO_THREAD_SAFETY_ANALYSIS {
  if ((built.load(std::memory_order_acquire) & bit) == 0) {
    const MutexLock lk(mu);
    // Relaxed is enough under the mutex: the lock orders us after any
    // prior critical section that set the bit.
    if ((built.load(std::memory_order_relaxed) & bit) == 0) {
      if (!slot) slot.emplace(build());
      built.fetch_or(bit, std::memory_order_release);
    }
  }
  return *slot;
}

}  // namespace

Graph Graph::from_coo(const Coo& edges, const GraphOptions& opts) {
  return from_csr(coo_to_csr(pattern_of(edges)), opts);
}

Graph Graph::from_csr(Csr adjacency, const GraphOptions& opts) {
  if (adjacency.nrows != adjacency.ncols) {
    throw std::invalid_argument(
        "Graph: adjacency must be square, got " +
        std::to_string(adjacency.nrows) + " x " +
        std::to_string(adjacency.ncols));
  }
  Graph g;
  adjacency.val.clear();  // homogeneous: pattern only
  if (opts.strip_self_loops) adjacency = strip_diagonal(adjacency);
  if (opts.symmetrize) adjacency = symmetrize(adjacency);
  g.csr_ = std::move(adjacency);
  g.opts_ = opts;
  return g;
}

int Graph::tile_dim() const {
  Lazy& l = *lazy_;
  return materialize(l.built, kBuiltTileDim, l.dim_mu, l.tile_dim, [&] {
    if (opts_.tile_dim != 0) return opts_.tile_dim;
    // The §III-C workflow, run at the first B2SR-side request rather
    // than at construction: sample, estimate compression per dim, pick
    // the best.
    const SamplingProfile prof =
        sample_profile(csr_, kSampleRows, kSampleSeed);
    return prof.recommended_dim();
  });
}

const Csr& Graph::adjacency_t() const {
  if (opts_.symmetrize) return csr_;  // A symmetric A is its own transpose.
  Lazy& l = *lazy_;
  return materialize(l.built, kFmtCsrT, l.csr_t_mu, l.csr_t,
                     [&] { return transpose(csr_); });
}

const B2srAny& Graph::packed() const {
  Lazy& l = *lazy_;
  return materialize(l.built, kFmtB2sr, l.b2sr_mu, l.b2sr, [&] {
    return pack_any(csr_, tile_dim(), opts_.ingest);
  });
}

const B2srAny& Graph::packed_t() const {
  if (opts_.symmetrize) return packed();
  Lazy& l = *lazy_;
  return materialize(l.built, kFmtB2srT, l.b2sr_t_mu, l.b2sr_t, [&] {
    return pack_any(adjacency_t(), tile_dim(), opts_.ingest);
  });
}

const Csr& Graph::unit_adjacency_t() const {
  Lazy& l = *lazy_;
  return materialize(l.built, kFmtUnitCsrT, l.unit_t_mu, l.unit_csr_t, [&] {
    Csr u = adjacency_t();
    u.val.assign(static_cast<std::size_t>(u.nnz()), 1.0f);
    return u;
  });
}

const Csr& Graph::lower() const {
  Lazy& l = *lazy_;
  return materialize(l.built, kFmtLower, l.lower_mu, l.lower, [&] {
    // Relabeling a directed A would change which edges count as lower.
    return opts_.symmetrize && degrees_skewed(csr_)
               ? degree_ordered_lower(csr_)
               : lower_triangle(csr_);
  });
}

const B2srAny& Graph::packed_lower() const {
  Lazy& l = *lazy_;
  return materialize(l.built, kFmtB2srLower, l.b2sr_lower_mu, l.b2sr_lower,
                     [&] {
                       return pack_any(lower(), tile_dim(), opts_.ingest);
                     });
}

const std::vector<vidx_t>& Graph::degrees() const {
  Lazy& l = *lazy_;
  return materialize(l.built, kFmtDegrees, l.degrees_mu, l.degrees,
                     [&] { return out_degrees(csr_); });
}

const std::vector<vidx_t>& Graph::no_in_edges() const {
  Lazy& l = *lazy_;
  return materialize(l.built, kBuiltNoInEdges, l.no_in_mu, l.no_in_edges, [&] {
    // The columns absent from colind: the empty rows of A^T.
    const vidx_t n = csr_.nrows;
    std::vector<vidx_t> out;
    std::vector<std::uint8_t> reached(static_cast<std::size_t>(n), 0);
    for (const vidx_t c : csr_.colind) reached[static_cast<std::size_t>(c)] = 1;
    for (vidx_t v = 0; v < n; ++v) {
      if (reached[static_cast<std::size_t>(v)] == 0) out.push_back(v);
    }
    return out;
  });
}

FormatSet Graph::formats() const {
  // Mask the private tile-dim / fingerprint / no-in-edge bits: they are
  // publication state, not formats.
  FormatSet f =
      lazy_->built.load(std::memory_order_acquire) & kPublicFormatMask;
  // A symmetric graph's transposes are A's own formats.
  if (opts_.symmetrize) {
    f |= kFmtCsrT;
    if ((f & kFmtB2sr) != 0) f |= kFmtB2srT;
  }
  return f;
}

void Graph::prewarm(FormatSet want) const {
  if (want & kFmtCsrT) (void)adjacency_t();
  if (want & kFmtUnitCsrT) (void)unit_adjacency_t();
  if (want & kFmtLower) (void)lower();
  if (want & kFmtB2sr) (void)packed();
  if (want & kFmtB2srT) {
    // The BFS pull's operand, and the list it closes before its first
    // pull level.
    (void)packed_t();
    (void)no_in_edges();
  }
  if (want & kFmtB2srLower) (void)packed_lower();
  if (want & kFmtDegrees) (void)degrees();
}

std::uint64_t Graph::fingerprint() const {
  Lazy& l = *lazy_;
  return materialize(l.built, kBuiltFingerprint, l.fp_mu, l.fp,
                     [&] { return snap::csr_fingerprint(csr_); });
}

}  // namespace bitgb::gb
