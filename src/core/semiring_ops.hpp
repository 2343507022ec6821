// Semiring operator bundles for the full-precision BMV schemes.
//
// Paper Table IV maps semirings to algorithms and BMV schemes:
//
// | semiring           | domain      | algorithms        | scheme        |
// |--------------------|-------------|-------------------|---------------|
// | Boolean            | {0,1}       | BFS, diameter,    | bin-bin-bin   |
// |                    |             | MIS, GC           |               |
// | Arithmetic         | R           | LGC, PR, TC       | bin-full-full |
// |                    |             |                   | / bin-bin-full|
// | Tropical min-plus  | R ∪ {+inf}  | SSSP, CC          | bin-full-full |
// | Tropical max-times | R           | MIS, GC           | bin-full-full |
//
// Because the matrix is binary, the "multiply" of the semiring collapses
// to a map over the vector element at each adjacent column: an adjacency
// 1 contributes map(x[j]); an adjacency 0 contributes the identity (the
// paper's SSSP rule "the 0s in the adjacency matrix are identified as
// infinite", §V).  Each bundle therefore provides:
//   identity  — the reduction identity (annihilates absent edges),
//   map(x)    — contribution of an adjacent column holding x,
//   reduce(a,b) — the additive reduction,
// and, for the bit kernel's lane engine (simd::semiring_row_fold), the
// same algebra as plain values so the engine needs no template over
// the bundles:
//   lane_reduce — which of add / min / max `reduce` is,
//   map_offset  — the constant `map` adds to x (0 or +1).
#pragma once

#include "sparse/types.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace bitgb {

/// The reduction of a semiring bundle, as the lane engine runs it.
enum class LaneReduce : std::uint8_t { kAdd, kMin, kMax };

/// Arithmetic (+, x) with unit edge weights: y[i] = sum_{j in adj(i)} x[j].
/// PR runs this on a pre-scaled vector (x[j]/outdeg[j] folded in before
/// the mxv — algebraically the paper's v_out_degree divide, §V).
///
/// `combine(a, x)` is the general semiring multiply with an explicit
/// stored value `a`: the float-CSR reference backend (the GraphBLAST
/// substitute) uses it, because GraphBLAST's arithmetic semirings load
/// one float per nonzero — the very traffic B2SR eliminates.  `map(x)`
/// is the binary-matrix specialization (a == 1 implicitly).
struct PlusTimesOp {
  static constexpr value_t identity = 0.0f;
  static constexpr LaneReduce lane_reduce = LaneReduce::kAdd;
  static constexpr value_t map_offset = 0.0f;
  static value_t map(value_t x) { return x; }
  static value_t combine(value_t a, value_t x) { return a * x; }
  static value_t reduce(value_t a, value_t b) { return a + b; }
};

/// Tropical min-plus with unit edge weights: y[i] = min_{j} (x[j] + 1).
/// SSSP relaxation over a homogeneous (unit-weight) graph.
struct MinPlusOp {
  static constexpr value_t identity = std::numeric_limits<value_t>::infinity();
  static constexpr LaneReduce lane_reduce = LaneReduce::kMin;
  static constexpr value_t map_offset = 1.0f;
  static value_t map(value_t x) { return x + 1.0f; }
  static value_t combine(value_t a, value_t x) { return x + a; }
  static value_t reduce(value_t a, value_t b) { return std::min(a, b); }
};

/// Tropical min with identity map: y[i] = min_{j} x[j].
/// The FastSV connected-components hook (paper §V, CC) — a select2nd
/// style multiply, so combine ignores the stored value.
struct MinIdentityOp {
  static constexpr value_t identity = std::numeric_limits<value_t>::infinity();
  static constexpr LaneReduce lane_reduce = LaneReduce::kMin;
  static constexpr value_t map_offset = 0.0f;
  static value_t map(value_t x) { return x; }
  static value_t combine(value_t, value_t x) { return x; }
  static value_t reduce(value_t a, value_t b) { return std::min(a, b); }
};

/// Tropical max-times with unit weights: y[i] = max_{j} x[j].
/// Used by MIS/graph-coloring style algorithms (paper Table IV).
struct MaxTimesOp {
  static constexpr value_t identity = -std::numeric_limits<value_t>::infinity();
  static constexpr LaneReduce lane_reduce = LaneReduce::kMax;
  static constexpr value_t map_offset = 0.0f;
  static value_t map(value_t x) { return x; }
  static value_t combine(value_t a, value_t x) { return a * x; }
  static value_t reduce(value_t a, value_t b) { return std::max(a, b); }
};

}  // namespace bitgb
