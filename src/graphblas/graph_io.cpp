// Graph persistence — Graph::save / Graph::load over the snapshot
// container (sparse/snapshot.hpp).
//
// save() persists the canonical CSR plus the requested format caches;
// load() is the warm-restart fast path: every persisted format lands
// directly in the Lazy cache (the once-lambdas skip recomputation for
// populated slots), so a loaded serving graph answers its first query
// without re-parsing text or re-packing B2SR.
//
// A symmetric graph is its own transpose (graph.hpp), so save() writes
// no transposed section for it.  Older v1 writers did; load() checks
// such sections byte-equal to A's and drops them, so files from either
// writer load the same graph and the format version stays 1.
//
// A persisted L may be in either order: vertex order, or the degree
// order lower() builds for a skewed symmetric graph (older writers
// always wrote vertex order).  Both count the same triangles, so load()
// keeps L as written and the format version stays 1 here too.
//
// Loads are paranoid by design: the snapshot container has already
// proven magic/version/CRCs by the time this layer runs, and this layer
// adds the STRUCTURAL defenses — Csr/B2sr validate(), cross-format
// dimension and nnz agreement, degrees recomputation, and the content
// fingerprint — so a CRC-clean but logically inconsistent file can
// never become a serving graph.  Two claims are proven outright in
// O(nnz), because a wrong one would answer every pull wrongly: the
// symmetrized flag (is_symmetric, since the flag makes Aᵀ alias A) and
// a directed graph's persisted CSR transpose (is_transpose_of).  The
// B2SR sections are checked by validate() and their nonzero count
// only: proving them against the CSR would cost about a re-pack, the
// work a snapshot exists to skip.  Any failure throws SnapshotError and
// the partially built Graph is destroyed on unwind.
#include "graphblas/graph.hpp"

#include "core/tile_traits.hpp"
#include "sparse/csr.hpp"
#include "sparse/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

namespace bitgb::gb {

namespace {

using snap::SectionId;
using snap::SnapshotError;

[[noreturn]] void invalid(const std::string& what) {
  throw SnapshotError(SnapshotError::Kind::kInvalidStructure, what);
}

void add_b2sr_sections(snap::SnapshotWriter& w, const B2srAny& m,
                       SectionId rowptr, SectionId colind, SectionId bits) {
  m.visit([&](const auto& b) {
    w.add_vector(rowptr, b.tile_rowptr);
    w.add_vector(colind, b.tile_colind);
    w.add_vector(bits, b.bits);
  });
}

/// Decode one persisted B2SR (all three sections must be present — the
/// writer emits trios, so a partial trio is corruption) and prove its
/// invariants before it may enter a cache.
B2srAny load_b2sr(const snap::Snapshot& s, SectionId rowptr, SectionId colind,
                  SectionId bits, vidx_t nrows, vidx_t ncols, eidx_t want_nnz,
                  const char* what) {
  const auto& h = s.header();
  if (h.tile_dim == 0) {
    throw SnapshotError(SnapshotError::Kind::kMalformed,
                        std::string(what) +
                            ": B2SR sections present but header tile_dim is 0");
  }
  return dispatch_tile_dim(static_cast<int>(h.tile_dim), [&]<int Dim>() {
    B2srT<Dim> b;
    b.nrows = nrows;
    b.ncols = ncols;
    b.tile_rowptr = s.vec<vidx_t>(rowptr);
    b.tile_colind = s.vec<vidx_t>(colind);
    using word_t = typename B2srT<Dim>::word_t;
    const auto sp = s.section(bits);
    if (sp.size() % sizeof(word_t) != 0) {
      throw SnapshotError(SnapshotError::Kind::kMalformed,
                          std::string(what) + ": bit store is not a whole "
                                              "number of tile words");
    }
    b.bits.resize(sp.size() / sizeof(word_t));
    if (!b.bits.empty()) std::memcpy(b.bits.data(), sp.data(), sp.size());
    if (!b.validate()) {
      invalid(std::string(what) + ": B2SR failed structural validation");
    }
    if (want_nnz >= 0 && b.nnz() != want_nnz) {
      invalid(std::string(what) + ": B2SR nonzero count disagrees with CSR");
    }
    return B2srAny(std::move(b));
  });
}

/// A persisted trio must be all-present or all-absent.
void require_trio(const snap::Snapshot& s, SectionId a, SectionId b,
                  SectionId c, const char* what) {
  const int present = int(s.has(a)) + int(s.has(b)) + int(s.has(c));
  if (present != 0 && present != 3) {
    throw SnapshotError(SnapshotError::Kind::kMalformed,
                        std::string(what) + ": partial B2SR section trio");
  }
}

void require_pair(const snap::Snapshot& s, SectionId a, SectionId b,
                  const char* what) {
  if (s.has(a) != s.has(b)) {
    throw SnapshotError(SnapshotError::Kind::kMalformed,
                        std::string(what) + ": partial CSR section pair");
  }
}

/// True if two present sections hold the same bytes.
bool same_bytes(const snap::Snapshot& s, SectionId a, SectionId b) {
  const auto x = s.section(a);
  const auto y = s.section(b);
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

Csr load_csr_pair(const snap::Snapshot& s, SectionId rowptr, SectionId colind,
                  vidx_t nrows, vidx_t ncols, const char* what) {
  Csr a;
  a.nrows = nrows;
  a.ncols = ncols;
  a.rowptr = s.vec<vidx_t>(rowptr);
  a.colind = s.vec<vidx_t>(colind);
  if (!a.validate()) {
    invalid(std::string(what) + ": CSR failed structural validation");
  }
  return a;
}

}  // namespace

void Graph::save(const std::string& path, FormatSet want,
                 FaultInjector* fault) const {
  // The unit-valued copy re-derives in O(nnz) with no graph analysis;
  // persisting nnz floats to save that would bloat every snapshot.
  want &= ~kFmtUnitCsrT;
  // A symmetric graph's transposes are A's own formats: their sections
  // would repeat A's bytes.
  if (opts_.symmetrize) {
    if ((want & kFmtB2srT) != 0) want |= kFmtB2sr;
    want &= ~(kFmtCsrT | kFmtB2srT);
  }
  prewarm(want);

  const bool any_b2sr =
      (want & (kFmtB2sr | kFmtB2srT | kFmtB2srLower)) != 0;
  snap::SnapshotHeader h;
  h.tile_dim = any_b2sr ? static_cast<std::uint32_t>(tile_dim())
                        : static_cast<std::uint32_t>(opts_.tile_dim);
  h.nrows = csr_.nrows;
  h.ncols = csr_.ncols;
  h.nnz = csr_.nnz();
  h.fingerprint = fingerprint();
  h.flags = (opts_.symmetrize ? snap::kFlagSymmetrized : 0u) |
            (opts_.strip_self_loops ? snap::kFlagLoopsStripped : 0u);

  snap::SnapshotWriter w(h);
  w.add_vector(SectionId::kCsrRowptr, csr_.rowptr);
  w.add_vector(SectionId::kCsrColind, csr_.colind);
  if ((want & kFmtCsrT) != 0) {
    const Csr& t = adjacency_t();
    w.add_vector(SectionId::kCsrTRowptr, t.rowptr);
    w.add_vector(SectionId::kCsrTColind, t.colind);
  }
  if ((want & kFmtLower) != 0) {
    const Csr& lo = lower();
    w.add_vector(SectionId::kLowerRowptr, lo.rowptr);
    w.add_vector(SectionId::kLowerColind, lo.colind);
  }
  if ((want & kFmtDegrees) != 0) {
    w.add_vector(SectionId::kDegrees, degrees());
  }
  if ((want & kFmtB2sr) != 0) {
    add_b2sr_sections(w, packed(), SectionId::kB2srRowptr,
                      SectionId::kB2srColind, SectionId::kB2srBits);
  }
  if ((want & kFmtB2srT) != 0) {
    add_b2sr_sections(w, packed_t(), SectionId::kB2srTRowptr,
                      SectionId::kB2srTColind, SectionId::kB2srTBits);
  }
  if ((want & kFmtB2srLower) != 0) {
    add_b2sr_sections(w, packed_lower(), SectionId::kB2srLowerRowptr,
                      SectionId::kB2srLowerColind, SectionId::kB2srLowerBits);
  }
  w.write_file(path, fault);
}

// Analysis opt-out, audited: load() fills the Lazy slots directly —
// the warm-restart seam — without taking the per-slot mutexes.  That is
// race-free because `g` is a local being constructed here; no second
// thread can hold a reference until load() returns.  "Unpublished
// object" is not a capability Thread Safety Analysis can see, so the
// seam opts out wholesale rather than sprinkling ten lock acquisitions
// over a single-threaded constructor path.
Graph Graph::load(const std::string& path) NO_THREAD_SAFETY_ANALYSIS {
  const snap::Snapshot s = snap::Snapshot::read_file(path);
  const auto& h = s.header();

  if (h.nrows != h.ncols) {
    invalid("adjacency is " + std::to_string(h.nrows) + " x " +
            std::to_string(h.ncols) + ", not square");
  }

  Graph g;
  g.opts_.symmetrize = (h.flags & snap::kFlagSymmetrized) != 0;
  g.opts_.strip_self_loops = (h.flags & snap::kFlagLoopsStripped) != 0;
  g.opts_.tile_dim = static_cast<int>(h.tile_dim);

  // Canonical adjacency: mandatory, validated, fingerprint-checked.
  Csr a = load_csr_pair(s, SectionId::kCsrRowptr, SectionId::kCsrColind,
                        h.nrows, h.ncols, "adjacency");
  if (a.nnz() != h.nnz) invalid("adjacency nnz disagrees with the header");
  if (snap::csr_fingerprint(a) != h.fingerprint) {
    invalid("content fingerprint disagrees with the header");
  }
  // The flag makes adjacency_t() and packed_t() alias A, so prove it.
  if (g.opts_.symmetrize && !is_symmetric(a)) {
    invalid("symmetrized flag over an asymmetric adjacency");
  }
  g.csr_ = std::move(a);

  Lazy& l = *g.lazy_;
  l.fp = h.fingerprint;
  FormatSet built = kFmtCsr;

  require_pair(s, SectionId::kCsrTRowptr, SectionId::kCsrTColind, "transpose");
  if (s.has(SectionId::kCsrTRowptr)) {
    if (g.opts_.symmetrize) {
      // An older writer's copy of A: check it and keep nothing.
      if (!same_bytes(s, SectionId::kCsrTRowptr, SectionId::kCsrRowptr) ||
          !same_bytes(s, SectionId::kCsrTColind, SectionId::kCsrColind)) {
        invalid("transpose of a symmetrized graph differs from its adjacency");
      }
    } else {
      Csr t = load_csr_pair(s, SectionId::kCsrTRowptr, SectionId::kCsrTColind,
                            h.ncols, h.nrows, "transpose");
      if (!is_transpose_of(t, g.csr_)) {
        invalid("transpose disagrees with the adjacency");
      }
      l.csr_t = std::move(t);
      built |= kFmtCsrT;
    }
  }

  require_pair(s, SectionId::kLowerRowptr, SectionId::kLowerColind, "lower");
  if (s.has(SectionId::kLowerRowptr)) {
    Csr lo = load_csr_pair(s, SectionId::kLowerRowptr, SectionId::kLowerColind,
                           h.nrows, h.ncols, "lower");
    if (lo.nnz() > h.nnz) invalid("lower triangle has more nonzeros than A");
    l.lower = std::move(lo);
    built |= kFmtLower;
  }

  if (s.has(SectionId::kDegrees)) {
    auto deg = s.vec<vidx_t>(SectionId::kDegrees);
    // Cheap to recompute, so verify instead of trusting: the persisted
    // vector must equal what the adjacency defines.
    if (deg != out_degrees(g.csr_)) {
      invalid("degree vector disagrees with the adjacency");
    }
    l.degrees = std::move(deg);
    built |= kFmtDegrees;
  }

  require_trio(s, SectionId::kB2srRowptr, SectionId::kB2srColind,
               SectionId::kB2srBits, "b2sr");
  if (s.has(SectionId::kB2srRowptr)) {
    l.b2sr = load_b2sr(s, SectionId::kB2srRowptr, SectionId::kB2srColind,
                       SectionId::kB2srBits, h.nrows, h.ncols, h.nnz, "b2sr");
    built |= kFmtB2sr;
  }
  require_trio(s, SectionId::kB2srTRowptr, SectionId::kB2srTColind,
               SectionId::kB2srTBits, "b2sr_t");
  if (s.has(SectionId::kB2srTRowptr)) {
    if (!g.opts_.symmetrize) {
      l.b2sr_t = load_b2sr(s, SectionId::kB2srTRowptr,
                           SectionId::kB2srTColind, SectionId::kB2srTBits,
                           h.ncols, h.nrows, h.nnz, "b2sr_t");
      built |= kFmtB2srT;
    } else if (l.b2sr) {
      // An older writer's copy of A's B2SR: check it and keep nothing.
      if (!same_bytes(s, SectionId::kB2srTRowptr, SectionId::kB2srRowptr) ||
          !same_bytes(s, SectionId::kB2srTColind, SectionId::kB2srColind) ||
          !same_bytes(s, SectionId::kB2srTBits, SectionId::kB2srBits)) {
        invalid("b2sr_t of a symmetrized graph differs from its b2sr");
      }
    } else {
      // Persisted without A's trio, it is A's B2SR all the same.
      l.b2sr = load_b2sr(s, SectionId::kB2srTRowptr, SectionId::kB2srTColind,
                         SectionId::kB2srTBits, h.nrows, h.ncols, h.nnz,
                         "b2sr_t");
      built |= kFmtB2sr;
    }
  }
  require_trio(s, SectionId::kB2srLowerRowptr, SectionId::kB2srLowerColind,
               SectionId::kB2srLowerBits, "b2sr_lower");
  if (s.has(SectionId::kB2srLowerRowptr)) {
    // L's nnz is only independently known when L itself rides along;
    // otherwise validate structure and bounds.
    const eidx_t lower_nnz = l.lower ? l.lower->nnz() : eidx_t{-1};
    l.b2sr_lower =
        load_b2sr(s, SectionId::kB2srLowerRowptr, SectionId::kB2srLowerColind,
                  SectionId::kB2srLowerBits, h.nrows, h.ncols, lower_nnz,
                  "b2sr_lower");
    if (lower_nnz < 0 && l.b2sr_lower->nnz() > h.nnz) {
      invalid("b2sr_lower has more nonzeros than A");
    }
    built |= kFmtB2srLower;
  }

  l.built.store(built, std::memory_order_release);
  return g;
}

}  // namespace bitgb::gb
