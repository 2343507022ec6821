#include "platform/crc32c.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BITGB_CRC32C_X86 1
#include <nmmintrin.h>
#else
#define BITGB_CRC32C_X86 0
#endif

namespace bitgb {

namespace {

/// Reflected Castagnoli polynomial (0x1EDC6F41 bit-reversed).
constexpr std::uint32_t kPoly = 0x82F63B78u;

struct Crc32cTables {
  std::uint32_t t[8][256];
};

constexpr Crc32cTables make_tables() {
  Crc32cTables tb{};
  for (int i = 0; i < 256; ++i) {
    std::uint32_t c = static_cast<std::uint32_t>(i);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? (c >> 1) ^ kPoly : c >> 1;
    }
    tb.t[0][i] = c;
  }
  // Slice tables: t[j][b] advances byte b through j additional zero
  // bytes, so eight lookups retire eight input bytes per iteration.
  for (int i = 0; i < 256; ++i) {
    std::uint32_t c = tb.t[0][i];
    for (int j = 1; j < 8; ++j) {
      c = tb.t[0][c & 0xffu] ^ (c >> 8);
      tb.t[j][i] = c;
    }
  }
  return tb;
}

constexpr Crc32cTables kTables = make_tables();

/// Raw-state software body (no initial/final inversion).
std::uint32_t sw_update(std::uint32_t state, const unsigned char* p,
                        std::size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint64_t v;
      std::memcpy(&v, p, 8);
      v ^= state;
      state = kTables.t[7][v & 0xff] ^ kTables.t[6][(v >> 8) & 0xff] ^
              kTables.t[5][(v >> 16) & 0xff] ^ kTables.t[4][(v >> 24) & 0xff] ^
              kTables.t[3][(v >> 32) & 0xff] ^ kTables.t[2][(v >> 40) & 0xff] ^
              kTables.t[1][(v >> 48) & 0xff] ^ kTables.t[0][(v >> 56) & 0xff];
      p += 8;
      n -= 8;
    }
  }
  while (n-- != 0) {
    state = kTables.t[0][(state ^ *p++) & 0xffu] ^ (state >> 8);
  }
  return state;
}

#if BITGB_CRC32C_X86
__attribute__((target("sse4.2"))) std::uint32_t hw_update(
    std::uint32_t state, const unsigned char* p, std::size_t n) {
  std::uint64_t s = state;
  while (n >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    s = _mm_crc32_u64(s, v);
    p += 8;
    n -= 8;
  }
  auto s32 = static_cast<std::uint32_t>(s);
  while (n-- != 0) s32 = _mm_crc32_u8(s32, *p++);
  return s32;
}

bool hw_available() {
  static const bool ok = __builtin_cpu_supports("sse4.2") != 0;
  return ok;
}
#endif

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  const std::uint32_t state = ~crc;
#if BITGB_CRC32C_X86
  if (hw_available()) return ~hw_update(state, p, len);
#endif
  return ~sw_update(state, p, len);
}

namespace detail {

std::uint32_t crc32c_sw(const void* data, std::size_t len, std::uint32_t crc) {
  return ~sw_update(~crc, static_cast<const unsigned char*>(data), len);
}

bool crc32c_hw_active() {
#if BITGB_CRC32C_X86
  return hw_available();
#else
  return false;
#endif
}

}  // namespace detail

}  // namespace bitgb
