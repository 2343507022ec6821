// CSR <-> B2SR conversion (bit packing).
//
// The pipeline mirrors the paper's (§III-B): first the tile index
// structure is derived from the CSR nonzero coordinates — the
// cusparseXcsr2bsrNnz() substitute — then each tile-row is encoded in
// parallel, packing each non-empty tile's elements into bit-rows.
// The conversion is a one-time cost the paper amortizes over repeated
// graph use; bench_conversion_overhead measures it.
#pragma once

#include "core/b2sr.hpp"
#include "platform/exec.hpp"
#include "sparse/csr.hpp"

#include <cstdint>
#include <vector>

namespace bitgb {

/// Number of non-empty dim x dim tiles of `a` — the
/// cusparseXcsr2bsrNnz() substitute.  No tiles are materialized and no
/// bits are packed; the count shares the pack pipeline's run index
/// (one transient O(nnz) array of tile columns) and its tile-row
/// merge, so count_nonempty_tiles and pack_from_csr can never
/// disagree.  The storage statistics (stats.hpp) and Figure 3 trends
/// build on it.
[[nodiscard]] vidx_t count_nonempty_tiles(const Csr& a, int dim,
                                          Exec exec = {});

/// Pack a CSR matrix (pattern; values, if any, are ignored — a nonzero
/// is a 1) into B2SR with the given tile dim.  Fused count+fill over a
/// k-way tile-column merge (CSR's sorted columns make each row's tile
/// sequence pre-sorted); the bit scatter runs through the SIMD engine's
/// pack_scatter_run.
template <int Dim>
[[nodiscard]] B2srT<Dim> pack_from_csr(const Csr& a, Exec exec = {});

/// The pre-rewrite packer (per-nonzero sort+unique walk plus
/// binary-search scatter), kept as the differential oracle: the
/// rewritten pipeline must be bit-for-bit identical to this
/// (test_pack_pipeline) and the conversion bench ablates the two.
template <int Dim>
[[nodiscard]] B2srT<Dim> pack_from_csr_reference(const Csr& a);

/// Runtime-dim packing.
[[nodiscard]] B2srAny pack_any(const Csr& a, int dim, Exec exec = {});

/// Unpack back to a binary CSR (sorted columns).  Round-trips exactly:
/// unpack(pack(a)) has the same pattern as a.
template <int Dim>
[[nodiscard]] Csr unpack_to_csr(const B2srT<Dim>& b);

[[nodiscard]] Csr unpack_any(const B2srAny& b);

/// B2SR of A^T: the upper level is transposed CSR->CSC (the paper uses
/// cusparseScsr2csc for this, §III-A merit 1) and each tile is
/// bit-transposed — equivalently, the column-major packing of A's tiles
/// re-read as row-major (paper Figure 2).
template <int Dim>
[[nodiscard]] B2srT<Dim> transpose(const B2srT<Dim>& a, Exec exec = {});

[[nodiscard]] B2srAny transpose_any(const B2srAny& a, Exec exec = {});

/// In-register bit transpose of one Dim x Dim tile (row words in ->
/// row words of the transposed tile out).  Exposed for tests and for
/// the packing ablation.
template <int Dim>
void transpose_tile(const typename TileTraits<Dim>::word_t* in,
                    typename TileTraits<Dim>::word_t* out);

// --- Nibble-packed B2SR-4 (paper §III-B: "we use half of the space in
// an unsigned char to allow 4-bit (nibble) packing").  Two bit-rows
// share one byte: row 2k in the low nibble, row 2k+1 in the high
// nibble, so a 4x4 tile costs 2 bytes instead of 4. ---

struct NibbleB2sr4 {
  vidx_t nrows = 0;
  vidx_t ncols = 0;
  std::vector<vidx_t> tile_rowptr;
  std::vector<vidx_t> tile_colind;
  std::vector<std::uint8_t> bytes;  ///< 2 bytes per tile

  [[nodiscard]] vidx_t n_tile_rows() const { return (nrows + 3) / 4; }
  [[nodiscard]] vidx_t nnz_tiles() const {
    return static_cast<vidx_t>(tile_colind.size());
  }
  [[nodiscard]] std::size_t storage_bytes() const {
    return tile_rowptr.size() * sizeof(vidx_t) +
           tile_colind.size() * sizeof(vidx_t) + bytes.size();
  }
  /// Bit-row r of tile t (low 4 bits valid).
  [[nodiscard]] std::uint8_t row(vidx_t t, int r) const {
    const std::uint8_t b =
        bytes[static_cast<std::size_t>(t) * 2 + static_cast<std::size_t>(r / 2)];
    return static_cast<std::uint8_t>((r % 2 == 0) ? (b & 0x0F) : (b >> 4));
  }
};

[[nodiscard]] NibbleB2sr4 pack_nibble4(const Csr& a);
[[nodiscard]] NibbleB2sr4 to_nibble4(const B2sr4& a);
[[nodiscard]] B2sr4 from_nibble4(const NibbleB2sr4& a);

}  // namespace bitgb
