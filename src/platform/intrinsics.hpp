// Portable bit-manipulation intrinsics.
//
// The paper's kernels lean on four CUDA integer intrinsics: __popc,
// __brev, __ballot_sync and __shfl_sync (paper §IV).  The first two are
// pure word-local operations and map 1:1 onto host instructions; this
// header provides them for every word width B2SR uses (8/16/32/64 bit).
// The warp-collective ones (__ballot_sync / __shfl_sync) need a lane
// model and live in warp_sim.hpp.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

namespace bitgb {

// Unsigned-integer concept for the packing word of a bit-tile.
template <typename W>
concept PackWord = std::is_unsigned_v<W> && !std::is_same_v<W, bool>;

/// Population count (CUDA __popc / __popcll analog).
template <PackWord W>
[[nodiscard]] constexpr int popcount(W w) noexcept {
  return std::popcount(w);
}

/// Bit reversal over the full word (CUDA __brev analog).
template <PackWord W>
[[nodiscard]] constexpr W brev(W w) noexcept {
  W r = 0;
  for (int i = 0; i < static_cast<int>(sizeof(W) * 8); ++i) {
    r = static_cast<W>(r << 1) | ((w >> i) & W{1});
  }
  return r;
}

/// Bit reversal restricted to the low `nbits` bits (for 4-bit nibble tiles
/// and for sub-word tile dims where only the low `tileDim` bits are used).
template <PackWord W>
[[nodiscard]] constexpr W brev_low(W w, int nbits) noexcept {
  W r = 0;
  for (int i = 0; i < nbits; ++i) {
    r = static_cast<W>(r << 1) | ((w >> i) & W{1});
  }
  return r;
}

/// Count of leading zeros (CUDA __clz analog).
template <PackWord W>
[[nodiscard]] constexpr int clz(W w) noexcept {
  return std::countl_zero(w);
}

/// Count of trailing zeros; returns bit width for w == 0.
template <PackWord W>
[[nodiscard]] constexpr int ctz(W w) noexcept {
  return std::countr_zero(w);
}

/// Extract bit `i` (LSB = bit 0) as 0/1.
template <PackWord W>
[[nodiscard]] constexpr unsigned get_bit(W w, int i) noexcept {
  return static_cast<unsigned>((w >> i) & W{1});
}

/// Return `w` with bit `i` set.
template <PackWord W>
[[nodiscard]] constexpr W set_bit(W w, int i) noexcept {
  return static_cast<W>(w | (W{1} << i));
}

/// Mask with the low `n` bits set (n may equal the word width).
template <PackWord W>
[[nodiscard]] constexpr W low_mask(int n) noexcept {
  const int width = static_cast<int>(sizeof(W) * 8);
  if (n >= width) return static_cast<W>(~W{0});
  return static_cast<W>((W{1} << n) - W{1});
}

/// Iterate the positions of set bits in `w`, lowest first, invoking
/// `fn(int bit_index)` for each.  This is the scalar backbone of
/// bmv_bin_full_full: visiting the columns a bit-row is adjacent to.
template <PackWord W, typename Fn>
constexpr void for_each_set_bit(W w, Fn&& fn) {
  while (w != 0) {
    const int b = ctz(w);
    fn(b);
    w = static_cast<W>(w & (w - W{1}));  // clear lowest set bit
  }
}

/// splitmix64, the stateless mixer: full-avalanche, so consecutive
/// counter values give independent-looking draws from one seed.  The
/// fault injector's Bernoulli draws and the MIS / coloring vertex
/// priorities all hash (seed ^ counter) through it.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace bitgb
