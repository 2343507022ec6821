// General bit SpGEMM: C = A (.) B over the Boolean semiring, with the
// result materialized in B2SR.
//
// This extends the paper's sum-only BMM (§IV) to a full matrix product,
// which multi-hop reachability / transitive-closure style algorithms
// need.  The tile-level inner step is the Boolean bit-matrix product
//   Crow_r |= OR_{t set in Arow_r} Brow_t
// computed entirely with word ops; the upper level is Gustavson's
// row-merge over the tile index, parallel over tile rows.
#pragma once

#include "core/b2sr.hpp"
#include "platform/exec.hpp"

namespace bitgb {

/// Two-phase flat-output product: a symbolic pass sizes each tile-row
/// (structural upper bound), the numeric pass fills pre-sized
/// tile_rowptr/colind/words arrays straight from the generation-marked
/// tile SPA — the tile-pair accumulate runs through the SIMD engine's
/// spgemm_tile_accum — and a final compaction drops the rare
/// all-annihilated tiles (a stored B tile can have zero rows, so a
/// structurally reachable output tile can still come out empty).
template <int Dim>
[[nodiscard]] B2srT<Dim> bit_spgemm(const B2srT<Dim>& a, const B2srT<Dim>& b,
                                    Exec exec = {});

/// The pre-rewrite implementation (per-tile-row vector-of-vectors
/// staging), kept as the differential oracle for test_pack_pipeline.
template <int Dim>
[[nodiscard]] B2srT<Dim> bit_spgemm_reference(const B2srT<Dim>& a,
                                              const B2srT<Dim>& b,
                                              Exec exec = {});

/// Runtime-dim dispatch (both operands must hold the same tile dim).
[[nodiscard]] B2srAny bit_spgemm_any(const B2srAny& a, const B2srAny& b,
                                     Exec exec = {});

}  // namespace bitgb
