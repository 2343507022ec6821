// CRC32C (Castagnoli) — the checksum of the snapshot subsystem.
//
// The Castagnoli polynomial is chosen over CRC32 (zlib) because x86-64
// ships it in hardware: SSE4.2's crc32 instruction folds 8 bytes per
// cycle-ish, so checksumming a snapshot runs at memory speed and the
// save/load paths never trade integrity for throughput.  Dispatch
// follows the kernel engine's model (platform/simd.cpp): the SSE4.2 body
// is compiled behind a function target attribute (no -march required),
// CPUID-probed once at runtime, and a host without SSE4.2 (or a
// toolchain without target attributes) runs the slice-by-8 software
// path.
// Both paths are bit-identical (asserted by test_snapshot's parity
// fuzz).
//
// API: composable "finished" values, like zlib's crc32() — pass 0 for a
// fresh checksum, or a previous result to extend it over more bytes:
//
//   std::uint32_t c = crc32c(a.data(), a.size());
//   c = crc32c(b.data(), b.size(), c);   // == crc32c over a||b
//
// (Internally the state is bit-inverted per the CRC32C specification;
// callers never see the raw register.)
#pragma once

#include <cstddef>
#include <cstdint>

namespace bitgb {

/// CRC32C of `len` bytes at `data`, continuing from `crc` (0 = fresh).
/// RFC 3720 test vectors: crc32c("123456789", 9) == 0xE3069283.
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t len,
                                   std::uint32_t crc = 0);

namespace detail {

/// The portable slice-by-8 software path, callable directly so the
/// parity suite can diff it against the dispatched result on SSE4.2
/// hosts.  Same composable-value semantics as crc32c().
[[nodiscard]] std::uint32_t crc32c_sw(const void* data, std::size_t len,
                                      std::uint32_t crc = 0);

/// True when the dispatched crc32c() runs the SSE4.2 hardware body.
[[nodiscard]] bool crc32c_hw_active();

}  // namespace detail

}  // namespace bitgb
