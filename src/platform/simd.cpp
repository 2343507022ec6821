// SIMD multi-tile kernel engine — implementation.
//
// Two bodies per entry, one contract (bit-identical results):
//
//   * AVX2 — hand-written intrinsics.  256-bit loads stream 8 B2SR-4
//     or 4 B2SR-8 tiles (one B2SR-16 tile, a quarter B2SR-32 tile) per
//     instruction; compare+movemask materializes Boolean row results,
//     byte-lane popcount uses the Mula pshufb nibble-LUT, and the
//     semiring BMV selects float lanes through a per-word pattern
//     table.
//   * portable — SWAR bodies: 64-bit words emulate the vector lanes
//     (per-byte popcount, byte-nonzero movemask), so hosts without
//     AVX2 keep most of the multi-tile batching.
//
// The AVX2 bodies are compiled in this translation unit behind
// gcc/clang function target attributes; active_backend() CPUID-probes
// the host once (__builtin_cpu_supports) and each public dispatcher
// branches on the cached result, so a binary built without -march
// still runs the AVX2 inner loops on an AVX2 host and the portable
// bodies elsewhere.
#include "platform/simd.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BITGB_SIMD_X86 1
#include <immintrin.h>
#else
#define BITGB_SIMD_X86 0
#endif

namespace bitgb {

namespace simd {

namespace {

Backend detect_backend() {
#if BITGB_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
#endif
  return Backend::kPortable;
}

// =====================================================================
// SWAR primitives — 64-bit words as poor-man's vector lanes.
// =====================================================================

/// Per-byte popcount of a 64-bit word (each byte counts its own bits).
[[gnu::always_inline]] inline std::uint64_t swar_popcnt_bytes(
    std::uint64_t v) {
  v = v - ((v >> 1) & 0x5555555555555555ull);
  v = (v & 0x3333333333333333ull) + ((v >> 2) & 0x3333333333333333ull);
  return (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0Full;
}

/// Movemask: bit r of the result = (byte r of v != 0).
[[gnu::always_inline]] inline std::uint32_t swar_bytes_nonzero_mask(
    std::uint64_t v) {
  const std::uint64_t hi =
      (v | ((v & 0x7F7F7F7F7F7F7F7Full) + 0x7F7F7F7F7F7F7F7Full)) &
      0x8080808080808080ull;
  return static_cast<std::uint32_t>(((hi >> 7) * 0x0102040810204080ull) >> 56);
}

/// Byte selects: byte c of entry m is 0xFF when m has bit c.
constexpr std::array<std::uint64_t, 256> kByteSelect = [] {
  std::array<std::uint64_t, 256> t{};
  for (unsigned m = 0; m < 256; ++m) {
    for (int c = 0; c < 8; ++c) {
      if ((m >> c) & 1u) t[m] |= std::uint64_t{0xFF} << (8 * c);
    }
  }
  return t;
}();

/// Load one B2SR-8 tile (8 bytes) as a word, byte r = bit-row r.
[[gnu::always_inline]] inline std::uint64_t load_tile8(
    const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Load one B2SR-4 tile (4 bytes) as a word, byte r = bit-row r.
[[gnu::always_inline]] inline std::uint32_t load_tile4(
    const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// =====================================================================
// Portable bodies.  The simd::portable:: entries below wrap them; they
// are marked always_inline so the AVX2 bodies that fall back to them
// (tails, and the dims where the vector form does not pay) compile
// them under the AVX2 target.
// =====================================================================

/// bbb_row_or over [lo, hi), starting from the rows `out` already holds
/// (the AVX2 bodies finish their scalar tails here).  `want` arrives
/// clipped to Dim bits; the loop returns as soon as it is covered.
template <int Dim>
[[gnu::always_inline]] inline typename TileTraits<Dim>::word_t bbb_row_or_body(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* xwords, vidx_t lo, vidx_t hi,
    typename TileTraits<Dim>::word_t want,
    typename TileTraits<Dim>::word_t out = 0) {
  using word_t = typename TileTraits<Dim>::word_t;
  if ((out & want) == want) return want;
  if constexpr (Dim == 8) {
    for (vidx_t t = lo; t < hi; ++t) {
      const std::uint64_t xw = xwords[static_cast<std::size_t>(colind[t])];
      if (xw == 0) continue;
      const std::uint64_t v = load_tile8(tiles + static_cast<std::size_t>(t) * 8) &
                              (xw * 0x0101010101010101ull);
      out = static_cast<word_t>(out | swar_bytes_nonzero_mask(v));
      if ((out & want) == want) return want;
    }
  } else if constexpr (Dim == 4) {
    for (vidx_t t = lo; t < hi; ++t) {
      const std::uint32_t xw = xwords[static_cast<std::size_t>(colind[t])];
      if (xw == 0) continue;
      const std::uint32_t v =
          load_tile4(tiles + static_cast<std::size_t>(t) * 4) &
          (xw * 0x01010101u);
      const std::uint32_t hi4 =
          (v | ((v & 0x7F7F7F7Fu) + 0x7F7F7F7Fu)) & 0x80808080u;
      out = static_cast<word_t>(out | (((hi4 >> 7) * 0x01020408u) >> 24));
      if ((out & want) == want) return want;
    }
  } else {
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t xw = xwords[static_cast<std::size_t>(colind[t])];
      if (xw == 0) continue;
      const word_t* w = tiles + static_cast<std::size_t>(t) * Dim;
      for (int r = 0; r < Dim; ++r) {
        if ((w[r] & xw) != 0) out = set_bit(out, r);
      }
      if ((out & want) == want) return want;
    }
  }
  return static_cast<word_t>(out & want);
}

template <int Dim>
[[gnu::always_inline]] inline void bbf_row_accum_body(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* xwords, vidx_t lo, vidx_t hi,
    std::int32_t* acc) {
  using word_t = typename TileTraits<Dim>::word_t;
  if constexpr (Dim == 8 || Dim == 4) {
    // Byte-lane accumulation with periodic flush: per tile each byte
    // gains at most Dim counts, so 255 / 8 = 31 tiles fit for Dim == 8
    // (more for Dim == 4; 31 is safe for both).
    std::uint64_t byte_acc = 0;
    int pending = 0;
    const auto flush = [&] {
      for (int r = 0; r < 8; ++r) {
        const auto c = static_cast<std::int32_t>((byte_acc >> (8 * r)) & 0xFF);
        if constexpr (Dim == 4) {
          acc[r & 3] += c;
        } else {
          acc[r] += c;
        }
      }
      byte_acc = 0;
      pending = 0;
    };
    vidx_t t = lo;
    if constexpr (Dim == 4) {
      for (; t + 2 <= hi; t += 2) {
        const std::uint64_t x0 = xwords[static_cast<std::size_t>(colind[t])];
        const std::uint64_t x1 =
            xwords[static_cast<std::size_t>(colind[t + 1])];
        if ((x0 | x1) == 0) continue;
        std::uint64_t pair;
        std::memcpy(&pair, tiles + static_cast<std::size_t>(t) * 4,
                    sizeof pair);
        const std::uint64_t xrep =
            x0 * 0x0000000001010101ull | (x1 * 0x0101010100000000ull);
        byte_acc += swar_popcnt_bytes(pair & xrep);
        if (++pending == 31) flush();
      }
      for (; t < hi; ++t) {
        const std::uint32_t xw = xwords[static_cast<std::size_t>(colind[t])];
        if (xw == 0) continue;
        byte_acc += swar_popcnt_bytes(
            static_cast<std::uint64_t>(
                load_tile4(tiles + static_cast<std::size_t>(t) * 4)) &
            (static_cast<std::uint64_t>(xw) * 0x01010101ull));
        if (++pending == 31) flush();
      }
    } else {
      for (; t < hi; ++t) {
        const std::uint64_t xw = xwords[static_cast<std::size_t>(colind[t])];
        if (xw == 0) continue;
        byte_acc += swar_popcnt_bytes(
            load_tile8(tiles + static_cast<std::size_t>(t) * 8) &
            (xw * 0x0101010101010101ull));
        if (++pending == 31) flush();
      }
    }
    if (pending != 0) flush();
  } else {
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t xw = xwords[static_cast<std::size_t>(colind[t])];
      if (xw == 0) continue;
      const word_t* w = tiles + static_cast<std::size_t>(t) * Dim;
      for (int r = 0; r < Dim; ++r) {
        acc[r] += popcount(static_cast<word_t>(w[r] & xw));
      }
    }
  }
}

template <int Dim>
[[gnu::always_inline]] inline void rows_pop_accum_body(
    const typename TileTraits<Dim>::word_t* tiles, vidx_t lo, vidx_t hi,
    std::int32_t* pop) {
  using word_t = typename TileTraits<Dim>::word_t;
  if constexpr (Dim == 8 || Dim == 4) {
    std::uint64_t byte_acc = 0;
    int pending = 0;
    const auto flush = [&] {
      for (int r = 0; r < 8; ++r) {
        const auto c = static_cast<std::int32_t>((byte_acc >> (8 * r)) & 0xFF);
        if constexpr (Dim == 4) {
          pop[r & 3] += c;
        } else {
          pop[r] += c;
        }
      }
      byte_acc = 0;
      pending = 0;
    };
    vidx_t t = lo;
    if constexpr (Dim == 4) {
      for (; t + 2 <= hi; t += 2) {
        std::uint64_t pair;
        std::memcpy(&pair, tiles + static_cast<std::size_t>(t) * 4,
                    sizeof pair);
        byte_acc += swar_popcnt_bytes(pair);
        if (++pending == 31) flush();
      }
      for (; t < hi; ++t) {
        byte_acc += swar_popcnt_bytes(static_cast<std::uint64_t>(
            load_tile4(tiles + static_cast<std::size_t>(t) * 4)));
        if (++pending == 31) flush();
      }
    } else {
      for (; t < hi; ++t) {
        byte_acc += swar_popcnt_bytes(
            load_tile8(tiles + static_cast<std::size_t>(t) * 8));
        if (++pending == 31) flush();
      }
    }
    if (pending != 0) flush();
  } else {
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t* w = tiles + static_cast<std::size_t>(t) * Dim;
      for (int r = 0; r < Dim; ++r) pop[r] += popcount(w[r]);
    }
  }
}

/// A B2SR-16/32 mask tile as masked_row_dot hoists it.  Set bits (r, c)
/// become pairs, summed 64/Dim pairs per popcount (the list is padded
/// to whole popcount words with zero-mask pairs): every bit of a tile
/// with at most four, else the bits of rows with at most Dim/16 (one
/// bit costs about as much as a row of the vector dot at dim 16).
/// The other rows stay whole for the per-row dot.  Entries past
/// npairs / nrows are never read.
template <int Dim>
struct MaskHoist {
  using word_t = typename TileTraits<Dim>::word_t;
  static constexpr int kPerWord = 64 / Dim;
  static constexpr int kMaxPairs = Dim * Dim / 16;
  int npairs = 0;
  int pr[kMaxPairs];
  int pc[kMaxPairs];
  word_t pm[kMaxPairs];
  int nrows = 0;
  int rows[Dim];

  explicit MaskHoist(const word_t* mwords) {
    int bits = 0;
    for (int r = 0; r < Dim; ++r) bits += popcount(mwords[r]);
    const int pair_row_bits = bits <= 4 ? 4 : Dim / 16;
    for (int r = 0; r < Dim; ++r) {
      const word_t m = mwords[r];
      if (m == 0) continue;
      if (popcount(m) > pair_row_bits) {
        rows[nrows++] = r;
        continue;
      }
      for (word_t b = m; b != 0; b = static_cast<word_t>(b & (b - 1))) {
        push(r, ctz(b), static_cast<word_t>(~word_t{0}));
      }
    }
    while (npairs % kPerWord != 0) push(0, 0, 0);
  }

  /// At most four set bits: summed over every B tile, branch-free.
  [[nodiscard]] bool sparse() const { return nrows == 0 && npairs <= 4; }

  void push(int r, int c, word_t mask) {
    pr[npairs] = r;
    pc[npairs] = c;
    pm[npairs] = mask;
    ++npairs;
  }

  /// Sum of popc(a[r] & b[c]) over the hoisted pairs.
  [[gnu::always_inline]] std::int64_t pairs_dot(const word_t* a,
                                                const word_t* b) const {
    std::int64_t sum = 0;
    for (int p0 = 0; p0 < npairs; p0 += kPerWord) {
      std::uint64_t w = 0;
      for (int i = 0; i < kPerWord; ++i) {
        const int p = p0 + i;
        w |= static_cast<std::uint64_t>(a[pr[p]] & b[pc[p]] & pm[p])
             << (Dim * i);
      }
      sum += popcount(w);
    }
    return sum;
  }
};

template <int Dim>
[[gnu::always_inline]] inline std::int64_t masked_row_dot_body(
    const typename TileTraits<Dim>::word_t* dense_a, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* tiles, vidx_t lo, vidx_t hi,
    const typename TileTraits<Dim>::word_t* mwords) {
  using word_t = typename TileTraits<Dim>::word_t;
  std::int64_t sum = 0;
  if constexpr (Dim == 8 || Dim == 4) {
    // Whole-row dot in one word: A's row broadcast over the byte lanes,
    // ANDed with the B tile (byte c = B bit-row c) and the row's byte
    // select, popcounted once.  The set rows come from one movemask of
    // the mask tile.
    constexpr std::uint64_t ones =
        Dim == 8 ? 0x0101010101010101ull : 0x0000000001010101ull;
    const auto load_tile = [](const word_t* p) -> std::uint64_t {
      if constexpr (Dim == 8) {
        return load_tile8(p);
      } else {
        return load_tile4(p);
      }
    };
    const auto arows = [&](vidx_t t) {
      return dense_a + static_cast<std::size_t>(colind[t]) * Dim;
    };
    std::uint32_t set_rows = swar_bytes_nonzero_mask(load_tile(mwords));
    if ((set_rows & (set_rows - 1)) == 0) {  // at most one set row
      if (set_rows == 0) return 0;
      const int r = ctz(set_rows);
      const std::uint64_t sel = kByteSelect[mwords[r]];
      for (vidx_t t = lo; t < hi; ++t) {
        sum += popcount(static_cast<std::uint64_t>(arows(t)[r]) * ones &
                        load_tile(tiles + static_cast<std::size_t>(t) * Dim) &
                        sel);
      }
      return sum;
    }
    int rows[Dim];
    std::uint64_t sels[Dim];
    int nrows = 0;
    for (; set_rows != 0; set_rows &= set_rows - 1) {
      rows[nrows] = ctz(set_rows);
      sels[nrows] = kByteSelect[mwords[rows[nrows]]];
      ++nrows;
    }
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t* a = arows(t);
      const std::uint64_t b =
          load_tile(tiles + static_cast<std::size_t>(t) * Dim);
      for (int i = 0; i < nrows; ++i) {
        sum += popcount(static_cast<std::uint64_t>(a[rows[i]]) * ones & b &
                        sels[i]);
      }
    }
  } else {
    const MaskHoist<Dim> h(mwords);
    const auto arows = [&](vidx_t t) {
      return dense_a + static_cast<std::size_t>(colind[t]) * Dim;
    };
    const auto btile = [&](vidx_t t) {
      return tiles + static_cast<std::size_t>(t) * Dim;
    };
    if (h.sparse()) {
      for (vidx_t t = lo; t < hi; ++t) sum += h.pairs_dot(arows(t), btile(t));
      return sum;
    }
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t* a = arows(t);
      word_t any = 0;
      for (int r = 0; r < Dim; ++r) any = static_cast<word_t>(any | a[r]);
      if (any == 0) continue;  // A has no tile at this column
      const word_t* b = btile(t);
      sum += h.pairs_dot(a, b);
      for (int i = 0; i < h.nrows; ++i) {
        const word_t arow = a[h.rows[i]];
        for_each_set_bit(mwords[h.rows[i]], [&](int c) {
          sum += popcount(static_cast<word_t>(arow & b[c]));
        });
      }
    }
  }
  return sum;
}

template <int Dim>
[[gnu::always_inline]] inline void frontier_row_accum_body(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    vidx_t lo, vidx_t hi, const std::uint64_t* frows, std::size_t /*nfrows*/,
    std::uint64_t* acc) {
  for (vidx_t t = lo; t < hi; ++t) {
    const auto base = static_cast<std::size_t>(colind[t]) *
                      static_cast<std::size_t>(Dim);
    const auto* w = tiles + static_cast<std::size_t>(t) * Dim;
    for (int r = 0; r < Dim; ++r) {
      if (w[r] == 0) continue;
      for_each_set_bit(w[r], [&](int j) {
        acc[r] |= frows[base + static_cast<std::size_t>(j)];
      });
    }
  }
}

template <int Dim>
[[gnu::always_inline]] inline void spgemm_tile_accum_body(
    const typename TileTraits<Dim>::word_t* awords,
    const typename TileTraits<Dim>::word_t* bwords,
    typename TileTraits<Dim>::word_t* cacc) {
  using word_t = typename TileTraits<Dim>::word_t;
  if constexpr (Dim == 8) {
    // Column-broadcast SWAR: for each column t of A present anywhere in
    // the tile, expand bit t of every A row into its byte lane
    // (m * 0xFF; the lanes are 0/1 so the multiply cannot carry) and OR
    // in B's bit-row t broadcast across the lanes.
    std::uint64_t at, bt, ct;
    std::memcpy(&at, awords, sizeof at);
    std::memcpy(&bt, bwords, sizeof bt);
    std::memcpy(&ct, cacc, sizeof ct);
    std::uint64_t fold = at | (at >> 32);
    fold |= fold >> 16;
    fold |= fold >> 8;
    auto colmask = static_cast<std::uint32_t>(fold & 0xFF);
    while (colmask != 0) {
      const int t = std::countr_zero(colmask);
      colmask &= colmask - 1;
      const std::uint64_t m = (at >> t) & 0x0101010101010101ull;
      ct |= (m * 0xFF) & (((bt >> (8 * t)) & 0xFF) * 0x0101010101010101ull);
    }
    std::memcpy(cacc, &ct, sizeof ct);
  } else if constexpr (Dim == 4) {
    std::uint32_t at, bt, ct;
    std::memcpy(&at, awords, sizeof at);
    std::memcpy(&bt, bwords, sizeof bt);
    std::memcpy(&ct, cacc, sizeof ct);
    std::uint32_t fold = at | (at >> 16);
    fold |= fold >> 8;
    std::uint32_t colmask = fold & 0x0F;
    while (colmask != 0) {
      const int t = std::countr_zero(colmask);
      colmask &= colmask - 1;
      const std::uint32_t m = (at >> t) & 0x01010101u;
      ct |= (m * 0xFFu) & (((bt >> (8 * t)) & 0xFFu) * 0x01010101u);
    }
    std::memcpy(cacc, &ct, sizeof ct);
  } else if constexpr (Dim == 16) {
    // Same broadcast over four 64-bit words of 16-bit lanes (four A
    // rows per word), gated on the tile-wide column mask.
    std::uint64_t aw[4], cw[4];
    std::memcpy(aw, awords, sizeof aw);
    std::memcpy(cw, cacc, sizeof cw);
    std::uint64_t fold = aw[0] | aw[1] | aw[2] | aw[3];
    fold |= fold >> 32;
    fold |= fold >> 16;
    auto colmask = static_cast<std::uint32_t>(fold & 0xFFFF);
    while (colmask != 0) {
      const int t = std::countr_zero(colmask);
      colmask &= colmask - 1;
      const std::uint64_t bcast =
          static_cast<std::uint64_t>(bwords[t]) * 0x0001000100010001ull;
      for (int w = 0; w < 4; ++w) {
        const std::uint64_t m = (aw[w] >> t) & 0x0001000100010001ull;
        cw[w] |= (m * 0xFFFF) & bcast;
      }
    }
    std::memcpy(cacc, cw, sizeof cw);
  } else {
    for (int r = 0; r < Dim; ++r) {
      const word_t arow = awords[r];
      if (arow == 0) continue;
      word_t crow = cacc[r];
      for_each_set_bit(arow, [&](int t) {
        crow = static_cast<word_t>(crow | bwords[static_cast<std::size_t>(t)]);
      });
      cacc[r] = crow;
    }
  }
}

// --- Semiring lane fold (semiring_row_fold). ---

/// One lane step, spelled as the x86 min/max instructions define it:
/// the first operand unless the second wins strictly.  Both bodies use
/// this exact form, so they agree even on signed zeros.
template <LaneReduce R>
[[gnu::always_inline]] inline value_t lane_fold(value_t a, value_t b) {
  if constexpr (R == LaneReduce::kAdd) {
    return a + b;
  } else if constexpr (R == LaneReduce::kMin) {
    return a < b ? a : b;
  } else {
    return a > b ? a : b;
  }
}

/// Invoke fn.template operator()<R>() for the runtime reduce kind.
template <typename Fn>
void dispatch_lane_reduce(LaneReduce reduce, Fn&& fn) {
  switch (reduce) {
    case LaneReduce::kAdd: fn.template operator()<LaneReduce::kAdd>(); return;
    case LaneReduce::kMin: fn.template operator()<LaneReduce::kMin>(); return;
    case LaneReduce::kMax: fn.template operator()<LaneReduce::kMax>(); return;
  }
}

template <LaneReduce R>
constexpr value_t kLaneIdentity =
    R == LaneReduce::kAdd   ? PlusTimesOp::identity
    : R == LaneReduce::kMin ? MinPlusOp::identity
                            : MaxTimesOp::identity;

/// Portable body: walk the set bits into lanes[j * Dim + r] (= L[r][j];
/// lane-major so the closing fold runs over contiguous rows), then fold
/// each row's lanes in ascending j.  Set bits never point past ncols
/// (B2SR zero-tail invariant), so x is read in bounds.
template <int Dim, LaneReduce R>
[[gnu::always_inline]] inline void semiring_row_fold_body(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    vidx_t lo, vidx_t hi, const value_t* x, value_t offset, value_t* out) {
  value_t lanes[Dim * Dim];
  for (value_t& l : lanes) l = kLaneIdentity<R>;
  for (vidx_t t = lo; t < hi; ++t) {
    const value_t* xp = x + static_cast<std::size_t>(colind[t]) * Dim;
    const auto* w = tiles + static_cast<std::size_t>(t) * Dim;
    for (int r = 0; r < Dim; ++r) {
      for_each_set_bit(w[r], [&](int j) {
        value_t& l = lanes[j * Dim + r];
        l = lane_fold<R>(l, xp[j]);
      });
    }
  }
  value_t acc[Dim];
  for (int r = 0; r < Dim; ++r) acc[r] = lanes[r];
  for (int j = 1; j < Dim; ++j) {
    for (int r = 0; r < Dim; ++r) {
      acc[r] = lane_fold<R>(acc[r], lanes[j * Dim + r]);
    }
  }
  if (offset != 0.0f) {
    for (int r = 0; r < Dim; ++r) acc[r] += offset;
  }
  std::memcpy(out, acc, sizeof(acc));
}

}  // namespace

// =====================================================================
// The portable entries (simd.hpp): the fallback of every dispatcher
// below and the parity tests' reference.
// =====================================================================

namespace portable {

template <int Dim>
typename TileTraits<Dim>::word_t bbb_row_or(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* xwords, vidx_t lo, vidx_t hi,
    typename TileTraits<Dim>::word_t want) {
  using word_t = typename TileTraits<Dim>::word_t;
  want = static_cast<word_t>(want & low_mask<word_t>(Dim));
  return bbb_row_or_body<Dim>(tiles, colind, xwords, lo, hi, want);
}

template <int Dim>
void bbf_row_accum(const typename TileTraits<Dim>::word_t* tiles,
                   const vidx_t* colind,
                   const typename TileTraits<Dim>::word_t* xwords, vidx_t lo,
                   vidx_t hi, std::int32_t* acc) {
  bbf_row_accum_body<Dim>(tiles, colind, xwords, lo, hi, acc);
}

template <int Dim>
void rows_pop_accum(const typename TileTraits<Dim>::word_t* tiles, vidx_t lo,
                    vidx_t hi, std::int32_t* pop) {
  rows_pop_accum_body<Dim>(tiles, lo, hi, pop);
}

template <int Dim>
std::int64_t masked_row_dot(const typename TileTraits<Dim>::word_t* dense_a,
                            const vidx_t* colind,
                            const typename TileTraits<Dim>::word_t* tiles,
                            vidx_t lo, vidx_t hi,
                            const typename TileTraits<Dim>::word_t* mwords) {
  return masked_row_dot_body<Dim>(dense_a, colind, tiles, lo, hi, mwords);
}

template <int Dim>
void frontier_row_accum(const typename TileTraits<Dim>::word_t* tiles,
                        const vidx_t* colind, vidx_t lo, vidx_t hi,
                        const std::uint64_t* frows, std::size_t nfrows,
                        std::uint64_t* acc) {
  frontier_row_accum_body<Dim>(tiles, colind, lo, hi, frows, nfrows, acc);
}

template <int Dim>
void spgemm_tile_accum(const typename TileTraits<Dim>::word_t* awords,
                       const typename TileTraits<Dim>::word_t* bwords,
                       typename TileTraits<Dim>::word_t* cacc) {
  spgemm_tile_accum_body<Dim>(awords, bwords, cacc);
}

template <int Dim>
void semiring_row_fold(const typename TileTraits<Dim>::word_t* tiles,
                       const vidx_t* colind, vidx_t lo, vidx_t hi,
                       const value_t* x, vidx_t /*ncols*/, LaneReduce reduce,
                       value_t offset, value_t* out) {
  dispatch_lane_reduce(reduce, [&]<LaneReduce R>() {
    semiring_row_fold_body<Dim, R>(tiles, colind, lo, hi, x, offset, out);
  });
}

}  // namespace portable

namespace {

#if BITGB_SIMD_X86

#define BITGB_TGT_AVX2 __attribute__((target("avx2,popcnt")))

// --- AVX2: hand-written intrinsics. ---

/// UB-free 32-byte vector load/store.  The classic
/// `loadu256(p)` idiom puns
/// the pointee type; a fixed-size memcpy through a local __m256i says
/// the same thing without the aliasing violation, and every supported
/// compiler folds it to the identical single vmovdqu — BENCH_kernels
/// spot-checked flat across the swap.
BITGB_TGT_AVX2 inline __m256i loadu256(const void* p) {
  __m256i v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

BITGB_TGT_AVX2 inline void store256(void* p, __m256i v) {
  std::memcpy(p, &v, sizeof(v));
}

/// The pshufb LUT of nibble popcounts, one copy per 128-bit half.
BITGB_TGT_AVX2 inline __m256i avx2_nibble_popcnt_lut() {
  return _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                          0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
}

/// Mula byte-lane popcount (pshufb nibble LUT).
BITGB_TGT_AVX2 inline __m256i avx2_popcnt_epi8(__m256i v) {
  const __m256i lut = avx2_nibble_popcnt_lut();
  const __m256i low = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// Per-32-bit-lane popcount: byte counts folded pairwise twice.
BITGB_TGT_AVX2 inline __m256i avx2_popcnt_epi32(__m256i v) {
  const __m256i c8 = avx2_popcnt_epi8(v);
  const __m256i c16 = _mm256_maddubs_epi16(c8, _mm256_set1_epi8(1));
  return _mm256_madd_epi16(c16, _mm256_set1_epi16(1));
}

/// Horizontal sum of 4 64-bit lanes.
BITGB_TGT_AVX2 inline std::int64_t avx2_sum_epi64(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return _mm_cvtsi128_si64(_mm_add_epi64(s, _mm_unpackhi_epi64(s, s)));
}

/// Horizontal OR of 4 64-bit lanes.
BITGB_TGT_AVX2 inline std::uint64_t avx2_hor_epi64(__m256i v) {
  __m128i o = _mm_or_si128(_mm256_castsi256_si128(v),
                           _mm256_extracti128_si256(v, 1));
  o = _mm_or_si128(o, _mm_unpackhi_epi64(o, o));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(o));
}

template <int Dim>
BITGB_TGT_AVX2 typename TileTraits<Dim>::word_t bbb_row_or_avx2(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* xwords, vidx_t lo, vidx_t hi,
    typename TileTraits<Dim>::word_t want) {
  using word_t = typename TileTraits<Dim>::word_t;
  want = static_cast<word_t>(want & low_mask<word_t>(Dim));
  if (want == 0) return 0;
  const __m256i zero = _mm256_setzero_si256();
  if constexpr (Dim == 8) {
    // 4 tiles (32 bytes) per step; each tile's 8 rows land in one byte
    // group of the movemask, folded into `out` for the exit check.
    word_t out = 0;
    vidx_t t = lo;
    for (; t + 4 <= hi; t += 4) {
      const std::uint64_t b0 = xwords[static_cast<std::size_t>(colind[t])];
      const std::uint64_t b1 = xwords[static_cast<std::size_t>(colind[t + 1])];
      const std::uint64_t b2 = xwords[static_cast<std::size_t>(colind[t + 2])];
      const std::uint64_t b3 = xwords[static_cast<std::size_t>(colind[t + 3])];
      if ((b0 | b1 | b2 | b3) == 0) continue;
      const __m256i xv = _mm256_set_epi64x(
          static_cast<long long>(b3 * 0x0101010101010101ull),
          static_cast<long long>(b2 * 0x0101010101010101ull),
          static_cast<long long>(b1 * 0x0101010101010101ull),
          static_cast<long long>(b0 * 0x0101010101010101ull));
      const __m256i tv = loadu256(
          tiles + static_cast<std::size_t>(t) * 8);
      const __m256i z = _mm256_cmpeq_epi8(_mm256_and_si256(tv, xv), zero);
      std::uint32_t m = ~static_cast<std::uint32_t>(_mm256_movemask_epi8(z));
      m |= m >> 16;
      m |= m >> 8;
      out = static_cast<word_t>(out | (m & 0xFF));
      if ((out & want) == want) return want;
    }
    return bbb_row_or_body<Dim>(tiles, colind, xwords, t, hi, want, out);
  } else if constexpr (Dim == 4) {
    // 8 tiles (32 bytes) per step, 4 movemask bits per tile.
    word_t out = 0;
    vidx_t t = lo;
    for (; t + 8 <= hi; t += 8) {
      std::uint32_t d[8];
      std::uint32_t any = 0;
      for (int i = 0; i < 8; ++i) {
        const std::uint32_t b = xwords[static_cast<std::size_t>(colind[t + i])];
        any |= b;
        d[i] = b * 0x01010101u;
      }
      if (any == 0) continue;
      const __m256i xv = _mm256_setr_epi32(
          static_cast<int>(d[0]), static_cast<int>(d[1]),
          static_cast<int>(d[2]), static_cast<int>(d[3]),
          static_cast<int>(d[4]), static_cast<int>(d[5]),
          static_cast<int>(d[6]), static_cast<int>(d[7]));
      const __m256i tv = loadu256(
          tiles + static_cast<std::size_t>(t) * 4);
      const __m256i z = _mm256_cmpeq_epi8(_mm256_and_si256(tv, xv), zero);
      std::uint32_t m = ~static_cast<std::uint32_t>(_mm256_movemask_epi8(z));
      m |= m >> 16;
      m |= m >> 8;
      m |= m >> 4;
      out = static_cast<word_t>(out | (m & 0xF));
      if ((out & want) == want) return want;
    }
    return bbb_row_or_body<Dim>(tiles, colind, xwords, t, hi, want, out);
  } else if constexpr (Dim == 16) {
    // One tile (16 uint16 rows) per 256-bit load.
    word_t out = 0;
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t xw = xwords[static_cast<std::size_t>(colind[t])];
      if (xw == 0) continue;
      const __m256i xv = _mm256_set1_epi16(static_cast<short>(xw));
      const __m256i tv = loadu256(
          tiles + static_cast<std::size_t>(t) * 16);
      const __m256i z = _mm256_cmpeq_epi16(_mm256_and_si256(tv, xv), zero);
      const __m128i packed = _mm_packs_epi16(
          _mm256_castsi256_si128(z), _mm256_extracti128_si256(z, 1));
      out = static_cast<word_t>(
          out | static_cast<word_t>(~_mm_movemask_epi8(packed)));
      if ((out & want) == want) return want;
    }
    return static_cast<word_t>(out & want);
  } else {
    // One tile = 32 uint32 rows = four 256-bit loads, 8 mask bits each.
    word_t out = 0;
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t xw = xwords[static_cast<std::size_t>(colind[t])];
      if (xw == 0) continue;
      const __m256i xv = _mm256_set1_epi32(static_cast<int>(xw));
      const auto* base = tiles + static_cast<std::size_t>(t) * 32;
      std::uint32_t m = 0;
      for (int k = 0; k < 4; ++k) {
        const __m256i tv = loadu256(base + 8 * k);
        const __m256i z = _mm256_cmpeq_epi32(_mm256_and_si256(tv, xv), zero);
        const auto zk = static_cast<std::uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(z)));
        m |= (~zk & 0xFFu) << (8 * k);
      }
      out |= m;
      if ((out & want) == want) return want;
    }
    return out & want;
  }
}

template <int Dim>
BITGB_TGT_AVX2 void bbf_row_accum_avx2(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* xwords, vidx_t lo, vidx_t hi,
    std::int32_t* acc) {
  using word_t = typename TileTraits<Dim>::word_t;
  if constexpr (Dim == 8) {
    __m256i accv = _mm256_setzero_si256();  // 8 x int32, one per bit-row
    vidx_t t = lo;
    for (; t + 4 <= hi; t += 4) {
      const std::uint64_t b0 = xwords[static_cast<std::size_t>(colind[t])];
      const std::uint64_t b1 = xwords[static_cast<std::size_t>(colind[t + 1])];
      const std::uint64_t b2 = xwords[static_cast<std::size_t>(colind[t + 2])];
      const std::uint64_t b3 = xwords[static_cast<std::size_t>(colind[t + 3])];
      if ((b0 | b1 | b2 | b3) == 0) continue;
      const __m256i xv = _mm256_set_epi64x(
          static_cast<long long>(b3 * 0x0101010101010101ull),
          static_cast<long long>(b2 * 0x0101010101010101ull),
          static_cast<long long>(b1 * 0x0101010101010101ull),
          static_cast<long long>(b0 * 0x0101010101010101ull));
      const __m256i tv = loadu256(
          tiles + static_cast<std::size_t>(t) * 8);
      const __m256i c = avx2_popcnt_epi8(_mm256_and_si256(tv, xv));
      const __m128i c_lo = _mm256_castsi256_si128(c);
      const __m128i c_hi = _mm256_extracti128_si256(c, 1);
      accv = _mm256_add_epi32(accv, _mm256_cvtepu8_epi32(c_lo));
      accv = _mm256_add_epi32(accv,
                              _mm256_cvtepu8_epi32(_mm_srli_si128(c_lo, 8)));
      accv = _mm256_add_epi32(accv, _mm256_cvtepu8_epi32(c_hi));
      accv = _mm256_add_epi32(accv,
                              _mm256_cvtepu8_epi32(_mm_srli_si128(c_hi, 8)));
    }
    alignas(32) std::int32_t lanes[8];
    store256(lanes, accv);
    for (int r = 0; r < 8; ++r) acc[r] += lanes[r];
    for (; t < hi; ++t) {
      const std::uint64_t xw = xwords[static_cast<std::size_t>(colind[t])];
      if (xw == 0) continue;
      const std::uint64_t counts = swar_popcnt_bytes(
          load_tile8(tiles + static_cast<std::size_t>(t) * 8) &
          (xw * 0x0101010101010101ull));
      for (int r = 0; r < 8; ++r) {
        acc[r] += static_cast<std::int32_t>((counts >> (8 * r)) & 0xFF);
      }
    }
  } else if constexpr (Dim == 16) {
    __m256i acc_lo = _mm256_setzero_si256();  // rows 0..7
    __m256i acc_hi = _mm256_setzero_si256();  // rows 8..15
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t xw = xwords[static_cast<std::size_t>(colind[t])];
      if (xw == 0) continue;
      const __m256i xv = _mm256_set1_epi16(static_cast<short>(xw));
      const __m256i tv = loadu256(
          tiles + static_cast<std::size_t>(t) * 16);
      const __m256i c16 = _mm256_maddubs_epi16(
          avx2_popcnt_epi8(_mm256_and_si256(tv, xv)), _mm256_set1_epi8(1));
      acc_lo = _mm256_add_epi32(
          acc_lo, _mm256_cvtepu16_epi32(_mm256_castsi256_si128(c16)));
      acc_hi = _mm256_add_epi32(
          acc_hi, _mm256_cvtepu16_epi32(_mm256_extracti128_si256(c16, 1)));
    }
    alignas(32) std::int32_t lanes[8];
    store256(lanes, acc_lo);
    for (int r = 0; r < 8; ++r) acc[r] += lanes[r];
    store256(lanes, acc_hi);
    for (int r = 0; r < 8; ++r) acc[8 + r] += lanes[r];
  } else if constexpr (Dim == 32) {
    __m256i accv[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                       _mm256_setzero_si256(), _mm256_setzero_si256()};
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t xw = xwords[static_cast<std::size_t>(colind[t])];
      if (xw == 0) continue;
      const __m256i xv = _mm256_set1_epi32(static_cast<int>(xw));
      const auto* base = tiles + static_cast<std::size_t>(t) * 32;
      for (int k = 0; k < 4; ++k) {
        const __m256i tv = loadu256(base + 8 * k);
        accv[k] = _mm256_add_epi32(
            accv[k], avx2_popcnt_epi32(_mm256_and_si256(tv, xv)));
      }
    }
    alignas(32) std::int32_t lanes[8];
    for (int k = 0; k < 4; ++k) {
      store256(lanes, accv[k]);
      for (int r = 0; r < 8; ++r) acc[8 * k + r] += lanes[r];
    }
  } else {
    bbf_row_accum_body<Dim>(tiles, colind, xwords, lo, hi, acc);
  }
}

template <int Dim>
BITGB_TGT_AVX2 void rows_pop_accum_avx2(
    const typename TileTraits<Dim>::word_t* tiles, vidx_t lo, vidx_t hi,
    std::int32_t* pop) {
  if constexpr (Dim == 8) {
    __m256i accv = _mm256_setzero_si256();
    vidx_t t = lo;
    for (; t + 4 <= hi; t += 4) {
      const __m256i tv = loadu256(
          tiles + static_cast<std::size_t>(t) * 8);
      const __m256i c = avx2_popcnt_epi8(tv);
      const __m128i c_lo = _mm256_castsi256_si128(c);
      const __m128i c_hi = _mm256_extracti128_si256(c, 1);
      accv = _mm256_add_epi32(accv, _mm256_cvtepu8_epi32(c_lo));
      accv = _mm256_add_epi32(accv,
                              _mm256_cvtepu8_epi32(_mm_srli_si128(c_lo, 8)));
      accv = _mm256_add_epi32(accv, _mm256_cvtepu8_epi32(c_hi));
      accv = _mm256_add_epi32(accv,
                              _mm256_cvtepu8_epi32(_mm_srli_si128(c_hi, 8)));
    }
    alignas(32) std::int32_t lanes[8];
    store256(lanes, accv);
    for (int r = 0; r < 8; ++r) pop[r] += lanes[r];
    for (; t < hi; ++t) {
      const std::uint64_t counts = swar_popcnt_bytes(
          load_tile8(tiles + static_cast<std::size_t>(t) * 8));
      for (int r = 0; r < 8; ++r) {
        pop[r] += static_cast<std::int32_t>((counts >> (8 * r)) & 0xFF);
      }
    }
  } else if constexpr (Dim == 16) {
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    for (vidx_t t = lo; t < hi; ++t) {
      const __m256i tv = loadu256(
          tiles + static_cast<std::size_t>(t) * 16);
      const __m256i c16 =
          _mm256_maddubs_epi16(avx2_popcnt_epi8(tv), _mm256_set1_epi8(1));
      acc_lo = _mm256_add_epi32(
          acc_lo, _mm256_cvtepu16_epi32(_mm256_castsi256_si128(c16)));
      acc_hi = _mm256_add_epi32(
          acc_hi, _mm256_cvtepu16_epi32(_mm256_extracti128_si256(c16, 1)));
    }
    alignas(32) std::int32_t lanes[8];
    store256(lanes, acc_lo);
    for (int r = 0; r < 8; ++r) pop[r] += lanes[r];
    store256(lanes, acc_hi);
    for (int r = 0; r < 8; ++r) pop[8 + r] += lanes[r];
  } else if constexpr (Dim == 32) {
    __m256i accv[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                       _mm256_setzero_si256(), _mm256_setzero_si256()};
    for (vidx_t t = lo; t < hi; ++t) {
      const auto* base = tiles + static_cast<std::size_t>(t) * 32;
      for (int k = 0; k < 4; ++k) {
        const __m256i tv = loadu256(base + 8 * k);
        accv[k] = _mm256_add_epi32(accv[k], avx2_popcnt_epi32(tv));
      }
    }
    alignas(32) std::int32_t lanes[8];
    for (int k = 0; k < 4; ++k) {
      store256(lanes, accv[k]);
      for (int r = 0; r < 8; ++r) pop[8 * k + r] += lanes[r];
    }
  } else {
    rows_pop_accum_body<Dim>(tiles, lo, hi, pop);
  }
}

/// Lane selects of one B2SR-16/32 mask row: lane c of the tile's
/// vector(s) all-ones when `mrow` has bit c (16-bit lanes in one
/// vector at dim 16, 32-bit lanes over four vectors at dim 32).
template <int Dim>
BITGB_TGT_AVX2 inline void avx2_lane_selects(
    typename TileTraits<Dim>::word_t mrow, __m256i* sel) {
  if constexpr (Dim == 16) {
    const __m256i bit = _mm256_setr_epi16(
        1 << 0, 1 << 1, 1 << 2, 1 << 3, 1 << 4, 1 << 5, 1 << 6, 1 << 7,
        1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14,
        static_cast<short>(1u << 15));
    sel[0] = _mm256_cmpeq_epi16(
        _mm256_and_si256(_mm256_set1_epi16(static_cast<short>(mrow)), bit),
        bit);
  } else {
    const __m256i m = _mm256_set1_epi32(static_cast<int>(mrow));
    const __m256i shift = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    for (int q = 0; q < 4; ++q) {
      const __m256i bit = _mm256_sllv_epi32(_mm256_set1_epi32(1 << (8 * q)),
                                            shift);
      sel[q] = _mm256_cmpeq_epi32(_mm256_and_si256(m, bit), bit);
    }
  }
}

template <int Dim>
BITGB_TGT_AVX2 std::int64_t masked_row_dot_avx2(
    const typename TileTraits<Dim>::word_t* dense_a, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* tiles, vidx_t lo, vidx_t hi,
    const typename TileTraits<Dim>::word_t* mwords) {
  using word_t = typename TileTraits<Dim>::word_t;
  if constexpr (Dim == 16 || Dim == 32) {
    const MaskHoist<Dim> h(mwords);
    const auto arows = [&](vidx_t t) {
      return dense_a + static_cast<std::size_t>(colind[t]) * Dim;
    };
    const auto btile = [&](vidx_t t) {
      return tiles + static_cast<std::size_t>(t) * Dim;
    };
    std::int64_t sum = 0;
    if (h.sparse()) {
      for (vidx_t t = lo; t < hi; ++t) sum += h.pairs_dot(arows(t), btile(t));
      return sum;
    }
    // One tile is kVecs vectors.  Each dense row adds at most 8 to a
    // byte of a count vector, so 16 rows fit before the counts widen
    // into 64-bit lanes (sad against zero).
    constexpr int kVecs = Dim * static_cast<int>(sizeof(word_t)) / 32;
    constexpr int kWordsPerVec = 32 / static_cast<int>(sizeof(word_t));
    __m256i sel[Dim][kVecs];
    for (int i = 0; i < h.nrows; ++i) {
      avx2_lane_selects<Dim>(mwords[h.rows[i]], sel[i]);
    }
    const __m256i zero = _mm256_setzero_si256();
    __m256i acc = zero;
    for (vidx_t t = lo; t < hi; ++t) {
      const word_t* a = arows(t);
      __m256i any = loadu256(a);
      for (int q = 1; q < kVecs; ++q) {
        any = _mm256_or_si256(any, loadu256(a + q * kWordsPerVec));
      }
      if (_mm256_testz_si256(any, any)) continue;  // no A tile here
      const word_t* b = btile(t);
      sum += h.pairs_dot(a, b);
      __m256i bv[kVecs];
      for (int q = 0; q < kVecs; ++q) bv[q] = loadu256(b + q * kWordsPerVec);
      for (int i0 = 0; i0 < h.nrows; i0 += 16) {
        __m256i cnt[kVecs];
        for (int q = 0; q < kVecs; ++q) cnt[q] = zero;
        const int i1 = h.nrows < i0 + 16 ? h.nrows : i0 + 16;
        for (int i = i0; i < i1; ++i) {
          __m256i arow;
          if constexpr (Dim == 16) {
            arow = _mm256_set1_epi16(static_cast<short>(a[h.rows[i]]));
          } else {
            arow = _mm256_set1_epi32(static_cast<int>(a[h.rows[i]]));
          }
          for (int q = 0; q < kVecs; ++q) {
            const __m256i x = _mm256_and_si256(_mm256_and_si256(arow, bv[q]),
                                               sel[i][q]);
            cnt[q] = _mm256_add_epi8(cnt[q], avx2_popcnt_epi8(x));
          }
        }
        for (int q = 0; q < kVecs; ++q) {
          acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt[q], zero));
        }
      }
    }
    return sum + avx2_sum_epi64(acc);
  } else if constexpr (Dim == 4) {
    // Eight B tiles per step: one load of their colind, one gather of
    // A's eight 4-byte tiles from the dense row, one load of the eight
    // B tiles.  Per set mask row r, one pshufb copies A's byte r over
    // its tile's four bytes and zeroes the bytes of columns the mask
    // row lacks (its index lanes there have the high bit set); ANDed
    // with the B tiles (byte c = B bit-row c), each byte is one nibble,
    // counted by one pshufb of the nibble LUT.  Rows shorter than a
    // step, and a row's last (hi - lo) % 8 tiles, run the scalar body.
    constexpr vidx_t kStep = 8;
    if (hi - lo < kStep) {
      return masked_row_dot_body<Dim>(dense_a, colind, tiles, lo, hi, mwords);
    }
    const __m256i lane_bytes = _mm256_setr_epi8(
        0, 0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12,
        0, 0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8, 12, 12, 12, 12);
    __m256i pick[Dim];
    int nrows = 0;
    for (int r = 0; r < Dim; ++r) {
      if (mwords[r] == 0) continue;
      const __m256i sel = _mm256_set1_epi32(
          static_cast<int>(static_cast<std::uint32_t>(kByteSelect[mwords[r]])));
      pick[nrows++] = _mm256_or_si256(
          _mm256_add_epi8(lane_bytes, _mm256_set1_epi8(static_cast<char>(r))),
          _mm256_andnot_si256(sel, _mm256_set1_epi8(static_cast<char>(0x80))));
    }
    if (nrows == 0) return 0;
    const __m256i lut = avx2_nibble_popcnt_lut();
    const __m256i zero = _mm256_setzero_si256();
    // The gather reads dense A's tiles as raw 32-bit lanes.
    const int* a_lanes = reinterpret_cast<const int*>(dense_a);
    const vidx_t vhi = hi - (hi - lo) % kStep;
    __m256i acc = zero;
    for (vidx_t t = lo; t < vhi; t += kStep) {
      const __m256i a = _mm256_i32gather_epi32(a_lanes, loadu256(colind + t),
                                               Dim);
      const __m256i b = loadu256(tiles + static_cast<std::size_t>(t) * Dim);
      __m256i cnt = zero;
      for (int i = 0; i < nrows; ++i) {
        const __m256i x = _mm256_and_si256(_mm256_shuffle_epi8(a, pick[i]), b);
        cnt = _mm256_add_epi8(cnt, _mm256_shuffle_epi8(lut, x));
      }
      acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
    }
    return avx2_sum_epi64(acc) +
           masked_row_dot_body<Dim>(dense_a, colind, tiles, vhi, hi, mwords);
  } else {
    // Dim 8: the scalar word-per-tile body, compiled here with the
    // popcnt instruction.
    return masked_row_dot_body<Dim>(dense_a, colind, tiles, lo, hi, mwords);
  }
}

/// One tile column j at dims 4 and 8: every row whose bit j is set
/// (lane select cmpeq(rows & colbit, colbit)) ORs the broadcast
/// frontier word f in.
template <int kGroups>
BITGB_TGT_AVX2 inline void frontier_column_or(__m256i* racc,
                                              const __m256i* rows,
                                              __m256i colbit, __m256i f) {
  for (int g = 0; g < kGroups; ++g) {
    const __m256i sel =
        _mm256_cmpeq_epi64(_mm256_and_si256(rows[g], colbit), colbit);
    racc[g] = _mm256_or_si256(racc[g], _mm256_and_si256(f, sel));
  }
}

template <int Dim>
BITGB_TGT_AVX2 void frontier_row_accum_avx2(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    vidx_t lo, vidx_t hi, const std::uint64_t* frows, std::size_t nfrows,
    std::uint64_t* acc) {
  using word_t = typename TileTraits<Dim>::word_t;
  if constexpr (Dim == 32) {
    // 32 batch words per tile block; per-bit OR is already competitive
    // and the block gather would dominate — keep the portable walk.
    frontier_row_accum_body<Dim>(tiles, colind, lo, hi, frows, nfrows, acc);
  } else if constexpr (Dim == 16) {
    // Per set row: select the frontier words of its set bits and OR
    // them horizontally.  The column sweep below spills its 16 column
    // constants here and measured slower (simd.hpp).
    constexpr int kGroups = Dim / 4;  // 64-bit lanes per 256-bit register
    __m256i bitsel[kGroups];
    for (int g = 0; g < kGroups; ++g) {
      bitsel[g] = _mm256_set_epi64x(
          static_cast<long long>(1u << (4 * g + 3)),
          static_cast<long long>(1u << (4 * g + 2)),
          static_cast<long long>(1u << (4 * g + 1)),
          static_cast<long long>(1u << (4 * g + 0)));
    }
    for (vidx_t t = lo; t < hi; ++t) {
      const auto base = static_cast<std::size_t>(colind[t]) *
                        static_cast<std::size_t>(Dim);
      const word_t* w = tiles + static_cast<std::size_t>(t) * Dim;
      if (base + Dim > nfrows) {
        // Tail tile-column: the frontier block is cut short; set bits
        // never point past nfrows (B2SR zero-tail invariant), so walk
        // them scalar.
        for (int r = 0; r < Dim; ++r) {
          if (w[r] == 0) continue;
          for_each_set_bit(w[r], [&](int j) {
            acc[r] |= frows[base + static_cast<std::size_t>(j)];
          });
        }
        continue;
      }
      __m256i fv[kGroups];
      for (int g = 0; g < kGroups; ++g) {
        fv[g] = loadu256(frows + base + 4 * g);
      }
      for (int r = 0; r < Dim; ++r) {
        if (w[r] == 0) continue;
        const __m256i wv = _mm256_set1_epi64x(static_cast<long long>(w[r]));
        __m256i red = _mm256_setzero_si256();
        for (int g = 0; g < kGroups; ++g) {
          const __m256i sel = _mm256_cmpeq_epi64(
              _mm256_and_si256(wv, bitsel[g]), bitsel[g]);
          red = _mm256_or_si256(red, _mm256_and_si256(fv[g], sel));
        }
        acc[r] |= avx2_hor_epi64(red);
      }
    }
  } else {
    // Dims 4 and 8, branch-free column sweep.  Register g holds the
    // accumulator words of rows 4g..4g+3 (one 64-bit lane each) for the
    // whole tile range.  A tile's four rows 4g..4g+3 are four
    // contiguous bytes, broadcast into every lane; lane i of colbit[j]
    // holds row 4g+i's bit j.  Per tile column the frontier word is
    // broadcast once and lands in every row whose bit j is set: no
    // per-row branch, no horizontal reduction.
    constexpr int kGroups = Dim / 4;
    __m256i colbit[Dim];
    for (int j = 0; j < Dim; ++j) {
      const auto bit = [&](int i) {
        return static_cast<long long>(std::uint64_t{1} << (8 * i + j));
      };
      colbit[j] = _mm256_set_epi64x(bit(3), bit(2), bit(1), bit(0));
    }
    __m256i racc[kGroups];
    for (int g = 0; g < kGroups; ++g) racc[g] = loadu256(acc + 4 * g);
    for (vidx_t t = lo; t < hi; ++t) {
      const auto base = static_cast<std::size_t>(colind[t]) *
                        static_cast<std::size_t>(Dim);
      const word_t* w = tiles + static_cast<std::size_t>(t) * Dim;
      __m256i rows[kGroups];
      for (int g = 0; g < kGroups; ++g) {
        std::int32_t four;
        std::memcpy(&four, w + 4 * g, sizeof four);
        rows[g] = _mm256_set1_epi32(four);
      }
      const std::uint64_t* f = frows + base;
      if (base + Dim <= nfrows) {
#pragma GCC unroll 8
        for (int j = 0; j < Dim; ++j) {
          frontier_column_or<kGroups>(
              racc, rows, colbit[j],
              _mm256_set1_epi64x(static_cast<long long>(f[j])));
        }
      } else {
        // Tail tile-column: the frontier block is cut short; its bits
        // past nfrows are zero (B2SR zero-tail invariant), so only its
        // valid columns run.
        const auto valid = static_cast<int>(nfrows - base);
        for (int j = 0; j < valid; ++j) {
          frontier_column_or<kGroups>(
              racc, rows, colbit[j],
              _mm256_set1_epi64x(static_cast<long long>(f[j])));
        }
      }
    }
    for (int g = 0; g < kGroups; ++g) store256(acc + 4 * g, racc[g]);
  }
}

template <int Dim>
BITGB_TGT_AVX2 void spgemm_tile_accum_avx2(
    const typename TileTraits<Dim>::word_t* awords,
    const typename TileTraits<Dim>::word_t* bwords,
    typename TileTraits<Dim>::word_t* cacc) {
  using word_t = typename TileTraits<Dim>::word_t;
  if constexpr (Dim == 16) {
    // Whole B tile in one register; per A row, bit-to-lane select of
    // the B rows named by the set bits, lane OR-reduce into the
    // accumulator row.
    const __m256i bv =
        loadu256(bwords);
    const __m256i bitsel = _mm256_setr_epi16(
        static_cast<short>(1u << 0), static_cast<short>(1u << 1),
        static_cast<short>(1u << 2), static_cast<short>(1u << 3),
        static_cast<short>(1u << 4), static_cast<short>(1u << 5),
        static_cast<short>(1u << 6), static_cast<short>(1u << 7),
        static_cast<short>(1u << 8), static_cast<short>(1u << 9),
        static_cast<short>(1u << 10), static_cast<short>(1u << 11),
        static_cast<short>(1u << 12), static_cast<short>(1u << 13),
        static_cast<short>(1u << 14), static_cast<short>(1u << 15));
    for (int r = 0; r < 16; ++r) {
      const word_t arow = awords[r];
      if (arow == 0) continue;
      const __m256i sel = _mm256_cmpeq_epi16(
          _mm256_and_si256(_mm256_set1_epi16(static_cast<short>(arow)),
                           bitsel),
          bitsel);
      const __m256i red = _mm256_and_si256(bv, sel);
      __m128i o = _mm_or_si128(_mm256_castsi256_si128(red),
                               _mm256_extracti128_si256(red, 1));
      o = _mm_or_si128(o, _mm_shuffle_epi32(o, _MM_SHUFFLE(1, 0, 3, 2)));
      o = _mm_or_si128(o, _mm_shuffle_epi32(o, _MM_SHUFFLE(2, 3, 0, 1)));
      o = _mm_or_si128(o, _mm_srli_epi32(o, 16));
      cacc[r] = static_cast<word_t>(
          cacc[r] | static_cast<std::uint32_t>(_mm_cvtsi128_si32(o)));
    }
  } else if constexpr (Dim == 32) {
    __m256i bv[4];
    __m256i bitsel[4];
    for (int k = 0; k < 4; ++k) {
      bv[k] = loadu256(bwords + 8 * k);
      bitsel[k] = _mm256_setr_epi32(
          static_cast<int>(1u << (8 * k + 0)),
          static_cast<int>(1u << (8 * k + 1)),
          static_cast<int>(1u << (8 * k + 2)),
          static_cast<int>(1u << (8 * k + 3)),
          static_cast<int>(1u << (8 * k + 4)),
          static_cast<int>(1u << (8 * k + 5)),
          static_cast<int>(1u << (8 * k + 6)),
          static_cast<int>(1u << (8 * k + 7)));
    }
    for (int r = 0; r < 32; ++r) {
      const word_t arow = awords[r];
      if (arow == 0) continue;
      const __m256i av = _mm256_set1_epi32(static_cast<int>(arow));
      __m256i red = _mm256_setzero_si256();
      for (int k = 0; k < 4; ++k) {
        const __m256i sel =
            _mm256_cmpeq_epi32(_mm256_and_si256(av, bitsel[k]), bitsel[k]);
        red = _mm256_or_si256(red, _mm256_and_si256(bv[k], sel));
      }
      __m128i o = _mm_or_si128(_mm256_castsi256_si128(red),
                               _mm256_extracti128_si256(red, 1));
      o = _mm_or_si128(o, _mm_shuffle_epi32(o, _MM_SHUFFLE(1, 0, 3, 2)));
      o = _mm_or_si128(o, _mm_shuffle_epi32(o, _MM_SHUFFLE(2, 3, 0, 1)));
      cacc[r] = static_cast<word_t>(
          cacc[r] | static_cast<std::uint32_t>(_mm_cvtsi128_si32(o)));
    }
  } else {
    spgemm_tile_accum_body<Dim>(awords, bwords, cacc);
  }
}

// --- Semiring lane fold: 128-bit lanes at dim 4, 256-bit above. ---

/// Per-chunk lane patterns: entry w (a W-bit chunk of a bit-row word)
/// holds, for lane j, the pattern that lanes_select<R>(x, pattern)
/// turns into x when bit j of w is set and into the identity when it
/// is clear — all-ones / zero under AND for kAdd, -inf / +inf under
/// max for kMin, +inf / -inf under min for kMax.
template <int W, LaneReduce R>
constexpr std::array<std::uint32_t, (std::size_t{1} << W) * W>
make_lane_table() {
  constexpr std::uint32_t kNegInf = 0xFF800000u;
  constexpr std::uint32_t kPosInf = 0x7F800000u;
  constexpr std::uint32_t set = R == LaneReduce::kAdd   ? 0xFFFFFFFFu
                                : R == LaneReduce::kMin ? kNegInf
                                                        : kPosInf;
  constexpr std::uint32_t clear = R == LaneReduce::kAdd   ? 0u
                                  : R == LaneReduce::kMin ? kPosInf
                                                          : kNegInf;
  std::array<std::uint32_t, (std::size_t{1} << W) * W> table{};
  for (std::size_t w = 0; w < (std::size_t{1} << W); ++w) {
    for (int j = 0; j < W; ++j) {
      table[w * W + static_cast<std::size_t>(j)] =
          ((w >> j) & 1u) != 0 ? set : clear;
    }
  }
  return table;
}

template <int W, LaneReduce R>
alignas(64) constexpr auto kLaneTable = make_lane_table<W, R>();

/// A register of W float lanes: W = 4 (128-bit) or 8 (256-bit).
template <int W>
struct LaneVec;
template <>
struct LaneVec<4> {
  using type = __m128;
};
template <>
struct LaneVec<8> {
  using type = __m256;
};
template <int W>
using lane_vec_t = typename LaneVec<W>::type;

template <int W>
BITGB_TGT_AVX2 inline lane_vec_t<W> lanes_load(const void* p) {
  lane_vec_t<W> v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <int W>
BITGB_TGT_AVX2 inline lane_vec_t<W> lanes_set1(value_t v) {
  if constexpr (W == 4) {
    return _mm_set1_ps(v);
  } else {
    return _mm256_set1_ps(v);
  }
}

/// x where the pattern selects the lane, the identity elsewhere.
template <int W, LaneReduce R>
BITGB_TGT_AVX2 inline lane_vec_t<W> lanes_select(lane_vec_t<W> x,
                                                 lane_vec_t<W> pattern) {
  if constexpr (W == 4) {
    if constexpr (R == LaneReduce::kAdd) {
      return _mm_and_ps(x, pattern);
    } else if constexpr (R == LaneReduce::kMin) {
      return _mm_max_ps(x, pattern);
    } else {
      return _mm_min_ps(x, pattern);
    }
  } else {
    if constexpr (R == LaneReduce::kAdd) {
      return _mm256_and_ps(x, pattern);
    } else if constexpr (R == LaneReduce::kMin) {
      return _mm256_max_ps(x, pattern);
    } else {
      return _mm256_min_ps(x, pattern);
    }
  }
}

/// lane_fold, lane-wise (minps/maxps keep the first operand on ties,
/// exactly as lane_fold does).
template <int W, LaneReduce R>
BITGB_TGT_AVX2 inline lane_vec_t<W> lanes_fold(lane_vec_t<W> a,
                                               lane_vec_t<W> b) {
  if constexpr (W == 4) {
    if constexpr (R == LaneReduce::kAdd) {
      return _mm_add_ps(a, b);
    } else if constexpr (R == LaneReduce::kMin) {
      return _mm_min_ps(a, b);
    } else {
      return _mm_max_ps(a, b);
    }
  } else {
    if constexpr (R == LaneReduce::kAdd) {
      return _mm256_add_ps(a, b);
    } else if constexpr (R == LaneReduce::kMin) {
      return _mm256_min_ps(a, b);
    } else {
      return _mm256_max_ps(a, b);
    }
  }
}

/// In-place transpose of a W x W lane block: afterwards l[j] holds
/// lane j of every row.
template <int W>
BITGB_TGT_AVX2 inline void lanes_transpose(lane_vec_t<W>* l) {
  if constexpr (W == 4) {
    _MM_TRANSPOSE4_PS(l[0], l[1], l[2], l[3]);
  } else {
    __m256 t[8];
#pragma GCC unroll 8
    for (int i = 0; i < 8; i += 2) {
      t[i] = _mm256_unpacklo_ps(l[i], l[i + 1]);
      t[i + 1] = _mm256_unpackhi_ps(l[i], l[i + 1]);
    }
    __m256 u[8];
    constexpr int kLo = _MM_SHUFFLE(1, 0, 1, 0);
    constexpr int kHi = _MM_SHUFFLE(3, 2, 3, 2);
#pragma GCC unroll 8
    for (int i = 0; i < 8; i += 4) {
      u[i] = _mm256_shuffle_ps(t[i], t[i + 2], kLo);
      u[i + 1] = _mm256_shuffle_ps(t[i], t[i + 2], kHi);
      u[i + 2] = _mm256_shuffle_ps(t[i + 1], t[i + 3], kLo);
      u[i + 3] = _mm256_shuffle_ps(t[i + 1], t[i + 3], kHi);
    }
#pragma GCC unroll 8
    for (int j = 0; j < 4; ++j) {
      l[j] = _mm256_permute2f128_ps(u[j], u[j + 4], 0x20);
      l[j + 4] = _mm256_permute2f128_ps(u[j], u[j + 4], 0x31);
    }
  }
}

/// Vector body.  Row r's lanes live in C = Dim / W registers of W
/// lanes (W = 4 at dim 4, else 8): l[r * C + c] holds L[r][c*W ..
/// c*W + W).  Per bit-row and register: one table load, one select and
/// one fold — no branch per word or per bit.  The closing fold
/// transposes each W x W block so that the ascending per-row lane fold
/// becomes vertical folds over W rows at once: the same operations in
/// the same order as the portable body's.
template <int Dim, LaneReduce R>
BITGB_TGT_AVX2 void semiring_row_fold_avx2(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    vidx_t lo, vidx_t hi, const value_t* x, vidx_t ncols, value_t offset,
    value_t* out) {
  constexpr int W = Dim == 4 ? 4 : 8;
  constexpr int C = Dim / W;
  constexpr std::uint32_t kChunkMask = (1u << W) - 1u;
  using vec_t = lane_vec_t<W>;
  const std::uint32_t* table = kLaneTable<W, R>.data();
  const vec_t identity = lanes_set1<W>(kLaneIdentity<R>);
  // At dims 4 and 8 the unrolled row loops keep l[] in registers.
  vec_t l[Dim * C];
#pragma GCC unroll 8
  for (vec_t& v : l) v = identity;
  const vidx_t full_cols = ncols / Dim;
  // A tail tile column reads an identity-padded copy of x instead (the
  // padded lanes are never selected: their bits are zero).
  value_t pad[Dim] = {};
  for (vidx_t t = lo; t < hi; ++t) {
    const vidx_t tc = colind[t];
    const value_t* xp = x + static_cast<std::size_t>(tc) * Dim;
    const value_t* src = xp;
    if (tc >= full_cols) {
      const vidx_t valid = ncols - tc * Dim;
      for (int j = 0; j < Dim; ++j) {
        pad[j] = j < valid ? xp[j] : kLaneIdentity<R>;
      }
      src = pad;
    }
    vec_t xv[C];
#pragma GCC unroll 8
    for (vec_t& v : xv) {
      v = lanes_load<W>(src);
      src += W;
    }
    const auto* w = tiles + static_cast<std::size_t>(t) * Dim;
#pragma GCC unroll 8
    for (int r = 0; r < Dim; ++r) {
      const std::uint32_t word = w[r];
#pragma GCC unroll 8
      for (int c = 0; c < C; ++c) {
        const std::size_t chunk = (word >> (c * W)) & kChunkMask;
        vec_t& v = l[r * C + c];
        v = lanes_fold<W, R>(
            v, lanes_select<W, R>(xv[c], lanes_load<W>(table + chunk * W)));
      }
    }
  }
  for (int rb = 0; rb < Dim; rb += W) {
    vec_t acc = identity;
    for (int c = 0; c < C; ++c) {
      vec_t block[W];
#pragma GCC unroll 8
      for (int i = 0; i < W; ++i) block[i] = l[(rb + i) * C + c];
      lanes_transpose<W>(block);
      acc = c == 0 ? block[0] : lanes_fold<W, R>(acc, block[0]);
#pragma GCC unroll 8
      for (int j = 1; j < W; ++j) acc = lanes_fold<W, R>(acc, block[j]);
    }
    if (offset != 0.0f) {
      acc = lanes_fold<W, LaneReduce::kAdd>(acc, lanes_set1<W>(offset));
    }
    std::memcpy(out + rb, &acc, sizeof(acc));
  }
}

#endif  // BITGB_SIMD_X86

}  // namespace

Backend active_backend() {
  static const Backend b = detect_backend();
  return b;
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kAvx2: return "avx2";
    case Backend::kPortable: return "portable";
  }
  return "?";
}

// ---------------------------------------------------------------------
// Public dispatchers: one branch on the cached backend per call — the
// only place that decides which body runs.
// ---------------------------------------------------------------------

template <int Dim>
typename TileTraits<Dim>::word_t bbb_row_or(
    const typename TileTraits<Dim>::word_t* tiles, const vidx_t* colind,
    const typename TileTraits<Dim>::word_t* xwords, vidx_t lo, vidx_t hi,
    typename TileTraits<Dim>::word_t want) {
#if BITGB_SIMD_X86
  if (active_backend() == Backend::kAvx2) {
    return bbb_row_or_avx2<Dim>(tiles, colind, xwords, lo, hi, want);
  }
#endif
  return portable::bbb_row_or<Dim>(tiles, colind, xwords, lo, hi, want);
}

template <int Dim>
void bbf_row_accum(const typename TileTraits<Dim>::word_t* tiles,
                   const vidx_t* colind,
                   const typename TileTraits<Dim>::word_t* xwords, vidx_t lo,
                   vidx_t hi, std::int32_t* acc) {
#if BITGB_SIMD_X86
  if (active_backend() == Backend::kAvx2) {
    bbf_row_accum_avx2<Dim>(tiles, colind, xwords, lo, hi, acc);
    return;
  }
#endif
  portable::bbf_row_accum<Dim>(tiles, colind, xwords, lo, hi, acc);
}

template <int Dim>
void rows_pop_accum(const typename TileTraits<Dim>::word_t* tiles, vidx_t lo,
                    vidx_t hi, std::int32_t* pop) {
#if BITGB_SIMD_X86
  if (active_backend() == Backend::kAvx2) {
    rows_pop_accum_avx2<Dim>(tiles, lo, hi, pop);
    return;
  }
#endif
  portable::rows_pop_accum<Dim>(tiles, lo, hi, pop);
}

template <int Dim>
std::int64_t masked_row_dot(const typename TileTraits<Dim>::word_t* dense_a,
                            const vidx_t* colind,
                            const typename TileTraits<Dim>::word_t* tiles,
                            vidx_t lo, vidx_t hi,
                            const typename TileTraits<Dim>::word_t* mwords) {
#if BITGB_SIMD_X86
  if (active_backend() == Backend::kAvx2) {
    return masked_row_dot_avx2<Dim>(dense_a, colind, tiles, lo, hi, mwords);
  }
#endif
  return portable::masked_row_dot<Dim>(dense_a, colind, tiles, lo, hi,
                                       mwords);
}

template <int Dim>
void frontier_row_accum(const typename TileTraits<Dim>::word_t* tiles,
                        const vidx_t* colind, vidx_t lo, vidx_t hi,
                        const std::uint64_t* frows, std::size_t nfrows,
                        std::uint64_t* acc) {
#if BITGB_SIMD_X86
  if (active_backend() == Backend::kAvx2) {
    frontier_row_accum_avx2<Dim>(tiles, colind, lo, hi, frows, nfrows, acc);
    return;
  }
#endif
  portable::frontier_row_accum<Dim>(tiles, colind, lo, hi, frows, nfrows,
                                    acc);
}

template <int Dim>
void spgemm_tile_accum(const typename TileTraits<Dim>::word_t* awords,
                       const typename TileTraits<Dim>::word_t* bwords,
                       typename TileTraits<Dim>::word_t* cacc) {
#if BITGB_SIMD_X86
  if (active_backend() == Backend::kAvx2) {
    spgemm_tile_accum_avx2<Dim>(awords, bwords, cacc);
    return;
  }
#endif
  portable::spgemm_tile_accum<Dim>(awords, bwords, cacc);
}

template <int Dim>
void semiring_row_fold(const typename TileTraits<Dim>::word_t* tiles,
                       const vidx_t* colind, vidx_t lo, vidx_t hi,
                       const value_t* x, vidx_t ncols, LaneReduce reduce,
                       value_t offset, value_t* out) {
  assert(reduce != LaneReduce::kAdd || offset == 0.0f);
#if BITGB_SIMD_X86
  if (active_backend() == Backend::kAvx2) {
    dispatch_lane_reduce(reduce, [&]<LaneReduce R>() {
      semiring_row_fold_avx2<Dim, R>(tiles, colind, lo, hi, x, ncols, offset,
                                     out);
    });
    return;
  }
#endif
  portable::semiring_row_fold<Dim>(tiles, colind, lo, hi, x, ncols, reduce,
                                   offset, out);
}

// Both the dispatchers (ns = simd) and the portable bodies (ns =
// portable) are instantiated for every tile dim.
#define BITGB_INSTANTIATE_SIMD(ns, Dim)                                      \
  template TileTraits<Dim>::word_t ns::bbb_row_or<Dim>(                      \
      const TileTraits<Dim>::word_t*, const vidx_t*,                        \
      const TileTraits<Dim>::word_t*, vidx_t, vidx_t,                        \
      TileTraits<Dim>::word_t);                                              \
  template void ns::bbf_row_accum<Dim>(const TileTraits<Dim>::word_t*,       \
                                       const vidx_t*,                        \
                                       const TileTraits<Dim>::word_t*,       \
                                       vidx_t, vidx_t, std::int32_t*);       \
  template void ns::rows_pop_accum<Dim>(const TileTraits<Dim>::word_t*,      \
                                        vidx_t, vidx_t, std::int32_t*);      \
  template std::int64_t ns::masked_row_dot<Dim>(                             \
      const TileTraits<Dim>::word_t*, const vidx_t*,                        \
      const TileTraits<Dim>::word_t*, vidx_t, vidx_t,                        \
      const TileTraits<Dim>::word_t*);                                       \
  template void ns::frontier_row_accum<Dim>(                                 \
      const TileTraits<Dim>::word_t*, const vidx_t*, vidx_t, vidx_t,         \
      const std::uint64_t*, std::size_t, std::uint64_t*);                    \
  template void ns::spgemm_tile_accum<Dim>(const TileTraits<Dim>::word_t*,   \
                                           const TileTraits<Dim>::word_t*,   \
                                           TileTraits<Dim>::word_t*);        \
  template void ns::semiring_row_fold<Dim>(                                  \
      const TileTraits<Dim>::word_t*, const vidx_t*, vidx_t, vidx_t,         \
      const value_t*, vidx_t, LaneReduce, value_t, value_t*)

BITGB_INSTANTIATE_SIMD(simd, 4);
BITGB_INSTANTIATE_SIMD(simd, 8);
BITGB_INSTANTIATE_SIMD(simd, 16);
BITGB_INSTANTIATE_SIMD(simd, 32);
BITGB_INSTANTIATE_SIMD(portable, 4);
BITGB_INSTANTIATE_SIMD(portable, 8);
BITGB_INSTANTIATE_SIMD(portable, 16);
BITGB_INSTANTIATE_SIMD(portable, 32);

#undef BITGB_INSTANTIATE_SIMD

}  // namespace simd
}  // namespace bitgb
