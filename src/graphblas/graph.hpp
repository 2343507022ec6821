// Graph — the public-facing handle of the library: a lazy, thread-safe
// multi-format view of one adjacency matrix.
//
// Construction stores only the binary CSR (symmetrized and self-loop-
// stripped by default — the homogeneous-graph preconditions of the
// paper's algorithms; both switchable, PR uses the directed adjacency).
// Every other representation materializes on first use under a per-slot
// mutex with double-checked atomic publication (see materialize() in
// graph.cpp) and is immutable afterwards, so any number of concurrent
// queries can share one const Graph:
//
//   * the CSR transpose and its unit-valued (1.0f per nonzero) copy for
//     the reference backend (the GraphBLAST-substitute baseline reads
//     one stored float per nonzero for the value-loading semirings,
//     §III-B: its SSSP and PageRank pull over A^T);
//   * B2SR and transposed B2SR for the bit backend, at a tile size
//     chosen explicitly or — on the first B2SR request, not at
//     construction — by the sampling profiler (paper §III-C);
//   * the strict lower triangle L and its B2SR for TC (paper §V), and
//     the out-degree vector for PR.  On a symmetric graph whose
//     degrees are skewed (mean above 4x the median) L is taken after
//     relabeling by descending degree, which cuts the B tiles TC's
//     masked BMM walks; even-degree graphs (roads, meshes) keep vertex
//     order, where the relabel would scatter neighbours over more
//     tiles, and so do directed graphs.
//
// A symmetric graph (built with `symmetrize`, or loaded from a snapshot
// whose symmetrized flag the loader proved) is its own transpose:
// adjacency_t() returns adjacency() and packed_t() returns packed(), so
// neither transpose is built, packed or stored a second time.  Only the
// unit-valued copy keeps its own storage, because its floats are the
// reference baseline's cost model.  A directed graph builds both
// transposes lazily like every other format.
//
// formats() reports which representations exist; prewarm() materializes
// a chosen set eagerly, so a server can pay the one-time conversions
// (the cost the paper amortizes, §III-B) before queries arrive instead
// of on the first query's critical path.
#pragma once

#include "core/b2sr.hpp"
#include "platform/context.hpp"
#include "platform/exec.hpp"
#include "platform/thread_annotations.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

namespace bitgb::gb {

using bitgb::Backend;       // historical spelling gb::Backend
using bitgb::backend_name;  // NOLINT(misc-unused-using-decls)

/// The materializable representations, as prewarm()/formats() bits.
enum Format : std::uint32_t {
  kFmtCsr = 1u << 0,        ///< binary CSR (always present)
  kFmtCsrT = 1u << 1,       ///< transposed CSR
  kFmtUnitCsrT = 1u << 3,   ///< unit-valued transposed CSR
  kFmtLower = 1u << 4,      ///< strict lower triangle L
  kFmtB2sr = 1u << 5,       ///< B2SR of the adjacency
  kFmtB2srT = 1u << 6,      ///< B2SR of the transpose
  kFmtB2srLower = 1u << 7,  ///< B2SR of L
  kFmtDegrees = 1u << 8,    ///< out-degree vector
};

using FormatSet = std::uint32_t;

/// Everything the reference backend reads.
inline constexpr FormatSet kReferenceFormats =
    kFmtCsr | kFmtCsrT | kFmtUnitCsrT | kFmtLower | kFmtDegrees;
/// Everything the bit backend reads.
inline constexpr FormatSet kBitFormats =
    kFmtCsr | kFmtCsrT | kFmtB2sr | kFmtB2srT | kFmtLower | kFmtB2srLower |
    kFmtDegrees;
inline constexpr FormatSet kAllFormats = kReferenceFormats | kBitFormats;

struct GraphOptions {
  bool symmetrize = true;      ///< undirected adjacency (BFS/SSSP/CC/TC)
  bool strip_self_loops = true;
  int tile_dim = 0;            ///< 4/8/16/32, or 0 = pick via sampling
  /// Execution policy for format materialization (packing, transposes):
  /// the ingest side of the handle, distinct from any query's Context.
  Exec ingest{};
};

class Graph {
 public:
  /// Build from an edge list (values, if any, are dropped: homogeneous).
  /// Throws std::invalid_argument unless the matrix is square.
  [[nodiscard]] static Graph from_coo(const Coo& edges,
                                      const GraphOptions& opts = {});

  /// Build from an existing binary CSR (takes a copy).  Throws
  /// std::invalid_argument unless the matrix is square.
  [[nodiscard]] static Graph from_csr(Csr adjacency,
                                      const GraphOptions& opts = {});

  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  [[nodiscard]] vidx_t num_vertices() const { return csr_.nrows; }
  [[nodiscard]] eidx_t num_edges() const { return csr_.nnz(); }

  /// The B2SR tile size.  Decided lazily: the first caller runs the
  /// §III-C sampling advisor (unless GraphOptions pinned a dim), so a
  /// reference-only workload never pays for sampling.
  [[nodiscard]] int tile_dim() const;

  /// Binary adjacency, CSR (always materialized).
  [[nodiscard]] const Csr& adjacency() const { return csr_; }
  /// Transposed adjacency (thread-safe, cached on first use — as are
  /// all accessors below).  adjacency() itself on a symmetric graph.
  [[nodiscard]] const Csr& adjacency_t() const;
  /// Unit-valued (1.0f per nonzero) copy of the transpose — what the
  /// float-CSR framework baseline actually stores and reads for the
  /// value-loading semirings (SSSP/PR), per §III-B: frameworks "use
  /// float to carry the elements".
  [[nodiscard]] const Csr& unit_adjacency_t() const;
  /// B2SR-packed adjacency.
  [[nodiscard]] const B2srAny& packed() const;
  /// B2SR of the transpose: packed() itself on a symmetric graph.
  [[nodiscard]] const B2srAny& packed_t() const;

  /// Strict lower triangle L — the TC operand of both backends (paper
  /// §V).  lower_triangle(adjacency()), except on a symmetric graph
  /// whose degrees are skewed (degrees_skewed: mean above 4x the
  /// median), where it is degree_ordered_lower(adjacency()): the
  /// triangle of A relabeled by descending degree.  Hubs then take the
  /// low ids, so most rows of L fall in the few tile columns they share
  /// and the masked BMM meets fewer all-zero A tiles; a relabel leaves
  /// the triangle count unchanged.  Road-like graphs with even degrees
  /// keep vertex order, which already keeps neighbours in few tiles;
  /// relabeling a directed graph would change which edges count as
  /// lower.  No option selects the order.
  [[nodiscard]] const Csr& lower() const;
  /// B2SR of L, in whichever order lower() has (the one-time
  /// conversion the paper amortizes).
  [[nodiscard]] const B2srAny& packed_lower() const;

  /// Out-degrees (the PR auxiliary vector, paper §V).
  [[nodiscard]] const std::vector<vidx_t>& degrees() const;

  /// The vertices no edge reaches — the empty rows of A^T, the isolated
  /// vertices of a symmetric graph — ascending.  BFS closes them in its
  /// pull mask.  Derived from the CSR on first use, or by prewarm()
  /// along with kFmtB2srT (the pull's operand); no Format bit, not
  /// persisted.
  [[nodiscard]] const std::vector<vidx_t>& no_in_edges() const;

  /// Which formats exist right now (kFmtCsr always set).  On a
  /// symmetric graph kFmtCsrT is set from construction and kFmtB2srT
  /// whenever kFmtB2sr is, because those transposes are A's own
  /// formats.  Safe to call concurrently with materialization.
  [[nodiscard]] FormatSet formats() const;

  /// Materialize every format in `want` now, off the query path — the
  /// server-side warm-up (kReferenceFormats / kBitFormats /
  /// kAllFormats, or any combination of Format bits).  kFmtB2srT also
  /// builds no_in_edges(), which the BFS pull reads with it.
  void prewarm(FormatSet want) const;

  /// 64-bit content fingerprint of the canonical adjacency pattern
  /// (cached after the first call).  Equal fingerprints serve
  /// bit-identical queries: snapshots persist it as an integrity
  /// double-check and GraphRegistry::add keys its re-add dedup on it.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Persist this graph as one checksummed snapshot file
  /// (sparse/snapshot.hpp): the canonical CSR plus every format in
  /// `want`, prewarmed first if absent — so a snapshot taken from a
  /// serving registry carries the expensive caches with it.  The
  /// unit-valued CSR copy is never persisted (trivially derived: 1.0f
  /// per nonzero; it re-materializes lazily), and neither are a
  /// symmetric graph's transposes (a wanted kFmtB2srT persists A's
  /// B2SR).  Written
  /// crash-consistently (temp file + fsync + atomic rename); `fault`
  /// threads the FaultInjector io_* knobs through every physical
  /// write.  Throws snap::SnapshotError(kIo) on failure.
  void save(const std::string& path, FormatSet want = kBitFormats,
            FaultInjector* fault = nullptr) const;

  /// Rebuild a Graph from a snapshot: no text re-parse, no re-pack, no
  /// re-prewarm — every persisted format lands directly in the lazy
  /// cache (formats() reports it immediately) and is validate()d, with
  /// cross-format consistency (dims, nnz, fingerprint) checked on top.
  /// The symmetrized flag and a persisted CSR transpose are proven
  /// against the adjacency (is_transpose_of); a symmetrized file's
  /// transposed sections, which older writers persisted, must equal A's
  /// and are dropped.
  /// Throws snap::SnapshotError (bad magic / truncation / CRC mismatch
  /// / version skew / structural failure, a non-square adjacency
  /// included); NEVER returns a partially loaded graph.
  [[nodiscard]] static Graph load(const std::string& path);

 private:
  Graph() = default;

  /// The lazily-materialized cache state, heap-held so the handle stays
  /// movable (mutexes pin their address).  Each slot pairs a Mutex with
  /// an optional: materialization takes the slot's mutex, then
  /// publishes by setting the slot's bit in `built` with release order
  /// so the lock-free fast path (acquire load of `built`) may read the
  /// slot without the lock.  The mutexes are per-slot — mirroring the
  /// per-slot once_flags they replaced — because dependent
  /// materializations (packed needs tile_dim, packed_t/unit_t need
  /// adjacency_t, packed_lower needs lower) lock the dependency's slot
  /// while holding their own; one cache-wide mutex would self-deadlock.
  /// (The once_flags also had to go for a second reason: TSan's
  /// pthread_once interceptor deadlocks on exceptional retry, the same
  /// hazard that shaped GraphSlot's component memo.)
  struct Lazy {
    Mutex dim_mu, csr_t_mu, unit_t_mu, lower_mu, b2sr_mu, b2sr_t_mu,
        b2sr_lower_mu, degrees_mu, no_in_mu, fp_mu;
    /// Publication word: public Format bits plus the private tile-dim /
    /// fingerprint / no-in-edge bits defined in graph.cpp (masked out of
    /// formats()).
    std::atomic<FormatSet> built{kFmtCsr};
    // The optionals double as the load() seam: Graph::load fills them
    // directly (snapshot sections, already validated) before the handle
    // is visible to any second thread, and materialize() skips
    // recomputation for populated slots.
    std::optional<int> tile_dim GUARDED_BY(dim_mu);
    std::optional<Csr> csr_t GUARDED_BY(csr_t_mu);
    std::optional<Csr> unit_csr_t GUARDED_BY(unit_t_mu);
    std::optional<Csr> lower GUARDED_BY(lower_mu);
    std::optional<B2srAny> b2sr GUARDED_BY(b2sr_mu);
    std::optional<B2srAny> b2sr_t GUARDED_BY(b2sr_t_mu);
    std::optional<B2srAny> b2sr_lower GUARDED_BY(b2sr_lower_mu);
    std::optional<std::vector<vidx_t>> degrees GUARDED_BY(degrees_mu);
    std::optional<std::vector<vidx_t>> no_in_edges GUARDED_BY(no_in_mu);
    std::optional<std::uint64_t> fp GUARDED_BY(fp_mu);
  };

  Csr csr_;
  /// opts_.symmetrize also records that csr_ is symmetric: from_csr
  /// symmetrized it, or load proved the flag.
  GraphOptions opts_{};
  std::unique_ptr<Lazy> lazy_ = std::make_unique<Lazy>();
};

}  // namespace bitgb::gb
