// Durable graph snapshots — the versioned, checksummed on-disk
// container for the library's formats.
//
// Bit-GraphBLAS's premise is that the packed representation is small
// enough to keep and move cheaply (the paper's Fig. 5 compression
// results); this file is where "keep" becomes literal.  A snapshot
// persists the canonical binary CSR plus any prewarmed derived formats
// (transposes, lower triangle, B2SR packings, degrees), so a restart
// re-materializes a serving graph with one sequential read — no
// MatrixMarket re-parse, no re-pack, no re-prewarm.
//
// File layout (all integers little-endian, no padding between
// sections; BUILDING.md "Durable snapshots" documents the same table):
//
//   fixed header — 64 bytes:
//     0   magic            8 bytes  "B2GBSNAP"
//     8   version          u32      kFormatVersion (exact match required)
//     12  tile_dim         u32      0, or 4/8/16/32 when B2SR rides
//     16  nrows            i32      canonical adjacency dims
//     20  ncols            i32
//     24  nnz              i64      canonical adjacency nonzeros
//     32  fingerprint      u64      csr_fingerprint() of the adjacency
//     40  flags            u32      kFlagSymmetrized | kFlagLoopsStripped
//     44  section_count    u32
//     48  reserved         12 bytes zero
//     60  header_crc       u32      crc32c of bytes [0, 60)
//
//   then section_count sections, each:
//     0   id               u32      SectionId
//     4   reserved         u32      zero
//     8   payload_bytes    u64
//     16  payload_crc      u32      crc32c of the payload
//     20  header_crc       u32      crc32c of bytes [0, 20) of this header
//     24  payload          payload_bytes bytes
//
// Version policy: the first 12 bytes (magic + version) and the 64-byte
// header with its trailing CRC are frozen across versions; a loader
// accepts exactly its own kFormatVersion and throws kVersionSkew for
// anything else (snapshots are caches — regenerating beats migrating).
//
// A symmetrized graph (kFlagSymmetrized) is its own transpose, so its
// snapshot carries no kCsrT* or kB2srT* section.  Earlier v1 files
// carry them; Graph::load checks them byte-equal to A's sections and
// drops them.  Either layout is version 1 and loads on either reader
// (tests/data/snapshot pins the earlier one).
//
// Every load is validated in depth order: magic, header CRC, version,
// field sanity, per-section header CRCs and bounds, payload CRCs, and
// finally the structural invariants of the decoded formats
// (Csr::validate / B2srT::validate plus cross-format consistency) in
// the Graph::load layer.  A failed load throws SnapshotError and never
// yields a partial object.
//
// Writes are crash-consistent: everything goes to `path + ".tmp"`,
// fsync, close, atomic rename over `path`, then a best-effort fsync of
// the directory.  A crash at ANY point leaves either the old file or
// the new one — plus possibly a stale .tmp that recovery ignores.
// FaultInjector's io_* knobs (platform/fault_injector.hpp) make every
// branch of that story deterministically testable.
#pragma once

#include "platform/fault_injector.hpp"
#include "sparse/csr.hpp"
#include "sparse/types.hpp"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace bitgb::snap {

inline constexpr char kMagic[8] = {'B', '2', 'G', 'B', 'S', 'N', 'A', 'P'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 64;
inline constexpr std::size_t kSectionHeaderBytes = 24;

/// Header flag bits: the GraphOptions preprocessing the adjacency
/// already went through (a loaded graph must not re-symmetrize).
inline constexpr std::uint32_t kFlagSymmetrized = 1u << 0;
inline constexpr std::uint32_t kFlagLoopsStripped = 1u << 1;

/// The typed payloads a v1 snapshot may carry.  Grouped by format;
/// matrix dims are implied by the header (transposes swap them), so a
/// section is a bare array.  An id outside this set fails the load with
/// kMalformed — the version pins the vocabulary.
enum class SectionId : std::uint32_t {
  kCsrRowptr = 1,   ///< canonical adjacency rowptr (vidx_t)
  kCsrColind = 2,   ///< canonical adjacency colind (vidx_t)
  kCsrTRowptr = 3,  ///< transposed adjacency (directed graphs only)
  kCsrTColind = 4,
  kLowerRowptr = 5,  ///< strict lower triangle L
  kLowerColind = 6,
  kDegrees = 7,  ///< out-degree vector (vidx_t, size nrows)
  kB2srRowptr = 16,  ///< B2SR of the adjacency (tile_rowptr / tile_colind
  kB2srColind = 17,  ///< in vidx_t, bits in the dim's word type)
  kB2srBits = 18,
  kB2srTRowptr = 19,  ///< B2SR of the transpose (directed graphs only)
  kB2srTColind = 20,
  kB2srTBits = 21,
  kB2srLowerRowptr = 22,  ///< B2SR of L
  kB2srLowerColind = 23,
  kB2srLowerBits = 24,
};

/// Everything a failed snapshot read/write throws.  kind() tells the
/// corruption-fuzz suite (and recovery telemetry) WHICH defense fired.
class SnapshotError : public std::runtime_error {
 public:
  enum class Kind {
    kIo,            ///< open/read/write/rename failed (or injected)
    kBadMagic,      ///< not a snapshot file
    kVersionSkew,   ///< a different format version (regenerate, don't parse)
    kTruncated,     ///< file ends before the declared bytes
    kCrcMismatch,   ///< a checksum caught flipped bits
    kMalformed,     ///< framing lies (unknown id, bad sizes, trailing bytes)
    kInvalidStructure,  ///< CRC-clean but structurally invalid content
  };

  SnapshotError(Kind kind, const std::string& msg)
      : std::runtime_error(msg), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// The fixed-header fields (section_count is filled by the writer).
struct SnapshotHeader {
  std::uint32_t version = kFormatVersion;
  std::uint32_t tile_dim = 0;  ///< 0 = no B2SR sections aboard
  vidx_t nrows = 0;
  vidx_t ncols = 0;
  eidx_t nnz = 0;
  std::uint64_t fingerprint = 0;
  std::uint32_t flags = 0;
  std::uint32_t section_count = 0;
};

/// 64-bit content fingerprint of a binary CSR pattern (dims + rowptr +
/// colind; values ignored).  Equal fingerprints mean bit-identical
/// query results, which is what snapshot integrity double-checks and
/// GraphRegistry::add's re-add dedup keys on.
[[nodiscard]] std::uint64_t csr_fingerprint(const Csr& a);

/// Crash-consistent small-file write (temp + fsync + rename + directory
/// fsync), shared by the snapshot writer and the registry manifest.
/// `fault`, when set, threads the io_* FaultPlan knobs through every
/// physical write.  Throws SnapshotError(kIo) on failure.
void atomic_write_file(const std::string& path, std::span<const std::byte> bytes,
                       FaultInjector* fault = nullptr);

/// Builds and durably writes one snapshot.  Section data is NOT copied:
/// the caller's arrays must stay alive until write_file() returns (they
/// are the Graph's own format caches in practice).
class SnapshotWriter {
 public:
  explicit SnapshotWriter(SnapshotHeader header) : header_(header) {}

  void add_section(SectionId id, const void* data, std::size_t bytes);

  template <typename T, typename A>
  void add_vector(SectionId id, const std::vector<T, A>& v) {
    add_section(id, v.data(), v.size() * sizeof(T));
  }

  /// Serialize header + sections to `path` via atomic_write_file's
  /// temp/fsync/rename protocol (one write syscall per header and per
  /// payload, so the io_* fault knobs index meaningful boundaries).
  void write_file(const std::string& path, FaultInjector* fault = nullptr) const;

 private:
  SnapshotHeader header_;
  struct Sec {
    SectionId id;
    const void* data;
    std::size_t bytes;
    std::uint32_t crc;
  };
  std::vector<Sec> sections_;
};

/// A fully validated in-memory snapshot: read_file() performs every
/// container-level check (magic, CRCs, version, framing) before
/// returning; typed extraction is then infallible modulo element-size
/// mismatches.  Section payloads are spans into the one file buffer.
class Snapshot {
 public:
  /// Offsets are exposed for the corruption fuzz and tooling: the fuzz
  /// suite truncates/flips at exactly these boundaries.
  struct SectionInfo {
    SectionId id;
    std::size_t header_offset;   ///< of the 24-byte section header
    std::size_t payload_offset;  ///< first payload byte
    std::size_t payload_bytes;
  };

  [[nodiscard]] static Snapshot read_file(const std::string& path);

  [[nodiscard]] const SnapshotHeader& header() const { return header_; }
  [[nodiscard]] const std::vector<SectionInfo>& sections() const {
    return index_;
  }
  [[nodiscard]] bool has(SectionId id) const;

  /// Payload bytes of `id`; throws kMalformed if absent.
  [[nodiscard]] std::span<const std::byte> section(SectionId id) const;

  /// Decode a section as a vector of T (any allocator — B2SR bit
  /// stores use the 64-byte-aligned one).  Throws kMalformed when the
  /// payload is not a whole number of elements.
  template <typename T, typename A = std::allocator<T>>
  [[nodiscard]] std::vector<T, A> vec(SectionId id) const {
    const auto sp = section(id);
    if (sp.size() % sizeof(T) != 0) {
      throw SnapshotError(SnapshotError::Kind::kMalformed,
                          "section payload is not a whole number of elements");
    }
    std::vector<T, A> out(sp.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), sp.data(), sp.size());
    return out;
  }

 private:
  Snapshot() = default;

  SnapshotHeader header_;
  /// Raw file image.  Stored as char — the element type istream::read
  /// writes natively — and viewed as bytes via std::as_bytes, so no
  /// pointer reinterpretation happens anywhere on the read path.
  std::vector<char> file_;
  std::vector<SectionInfo> index_;
};

}  // namespace bitgb::snap
