// Bit-Block Compressed Sparse Row (B2SR) — the paper's storage format.
//
// Two-level structure (paper §III, Figure 1):
//   * upper level: CSR over dim x dim tiles — `tile_rowptr` (size
//     n_tile_rows + 1) and `tile_colind` (size number of non-empty
//     tiles), exactly BSR's index structure;
//   * lower level: each non-empty tile stored dense as bits, `Dim` words
//     of `Dim` bits each.
//
// Word layout: word r of a tile is bit-row r; bit j (LSB = 0) of that
// word is column j inside the tile.  (The CUDA artifact's
// __brev(__ballot_sync(...)) packing produces the reversed bit order;
// the choice is an internal convention — see DESIGN.md §5 — and the
// warp-sim packers reproduce the paper's exact sequence for validation.)
//
// Tail tiles on the right/bottom edge of a matrix whose size is not a
// multiple of Dim keep their out-of-range bits zero; every algorithm
// relies on that invariant (checked by validate()).
#pragma once

#include "core/tile_traits.hpp"
#include "platform/aligned_alloc.hpp"
#include "sparse/types.hpp"

#include <cstddef>
#include <span>
#include <variant>
#include <vector>

namespace bitgb {

template <int Dim>
struct B2srT {
  using word_t = typename TileTraits<Dim>::word_t;
  /// The tile store starts on a 64-byte boundary, so tile offsets are
  /// cache-line-deterministic and line splits in the SIMD engine's
  /// streaming loads are minimized.  The engine still uses unaligned
  /// loads throughout: an individual tile's offset (t * Dim words) is
  /// not itself line-aligned in general.
  using bits_vector = std::vector<word_t, AlignedAllocator<word_t, kTileStoreAlign>>;
  static constexpr int dim = Dim;

  vidx_t nrows = 0;  ///< rows of the original matrix
  vidx_t ncols = 0;  ///< columns of the original matrix
  std::vector<vidx_t> tile_rowptr;  ///< size n_tile_rows()+1 (TileRowPtr)
  std::vector<vidx_t> tile_colind;  ///< size nnz_tiles() (TileColInd)
  bits_vector bits;                 ///< nnz_tiles()*Dim words (BitTiles)

  /// nTileRow = (nRows + tileDim - 1) / tileDim (paper §III-A).
  [[nodiscard]] vidx_t n_tile_rows() const {
    return (nrows + Dim - 1) / Dim;
  }
  [[nodiscard]] vidx_t n_tile_cols() const {
    return (ncols + Dim - 1) / Dim;
  }
  [[nodiscard]] vidx_t nnz_tiles() const {
    return static_cast<vidx_t>(tile_colind.size());
  }

  /// The Dim words of tile t (bit-rows, top to bottom).
  [[nodiscard]] std::span<const word_t> tile(vidx_t t) const {
    return {bits.data() + static_cast<std::size_t>(t) * Dim,
            static_cast<std::size_t>(Dim)};
  }
  [[nodiscard]] std::span<word_t> tile_mut(vidx_t t) {
    return {bits.data() + static_cast<std::size_t>(t) * Dim,
            static_cast<std::size_t>(Dim)};
  }

  /// Number of nonzero elements (popcount over all tiles, through the
  /// SIMD engine).
  [[nodiscard]] eidx_t nnz() const;

  /// Bytes the format occupies: the two index arrays plus the packed
  /// tiles — the numerator of the paper's compression ratio (§VI-B).
  [[nodiscard]] std::size_t storage_bytes() const {
    return tile_rowptr.size() * sizeof(vidx_t) +
           tile_colind.size() * sizeof(vidx_t) + bits.size() * sizeof(word_t);
  }

  /// Structural invariants: monotone rowptr, sorted in-range tile
  /// columns, word count = Dim * tiles, no bits outside the matrix, and
  /// no stored all-zero tile (non-empty tiles only, per the format's
  /// definition).
  [[nodiscard]] bool validate() const;
};

using B2sr4 = B2srT<4>;
using B2sr8 = B2srT<8>;
using B2sr16 = B2srT<16>;
using B2sr32 = B2srT<32>;

/// Type-erased B2SR for runtime tile-size selection (the sampling
/// advisor picks a dim at run time; the GraphBLAS layer stores this).
class B2srAny {
 public:
  B2srAny() = default;
  explicit B2srAny(B2sr4 m) : v_(std::move(m)) {}
  explicit B2srAny(B2sr8 m) : v_(std::move(m)) {}
  explicit B2srAny(B2sr16 m) : v_(std::move(m)) {}
  explicit B2srAny(B2sr32 m) : v_(std::move(m)) {}

  [[nodiscard]] int tile_dim() const {
    return std::visit([](const auto& m) { return m.dim; }, v_);
  }
  [[nodiscard]] vidx_t nrows() const {
    return std::visit([](const auto& m) { return m.nrows; }, v_);
  }
  [[nodiscard]] vidx_t ncols() const {
    return std::visit([](const auto& m) { return m.ncols; }, v_);
  }
  [[nodiscard]] eidx_t nnz() const {
    return std::visit([](const auto& m) { return m.nnz(); }, v_);
  }
  [[nodiscard]] vidx_t nnz_tiles() const {
    return std::visit([](const auto& m) { return m.nnz_tiles(); }, v_);
  }
  [[nodiscard]] std::size_t storage_bytes() const {
    return std::visit([](const auto& m) { return m.storage_bytes(); }, v_);
  }

  template <int Dim>
  [[nodiscard]] const B2srT<Dim>& as() const {
    return std::get<B2srT<Dim>>(v_);
  }

  /// visit(fn): fn(const B2srT<Dim>&) for the held alternative.
  template <typename Fn>
  decltype(auto) visit(Fn&& fn) const {
    return std::visit(std::forward<Fn>(fn), v_);
  }

 private:
  std::variant<B2sr4, B2sr8, B2sr16, B2sr32> v_;
};

}  // namespace bitgb
