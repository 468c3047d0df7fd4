// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the same checksum
// zlib and PNG use, so trace files can be cross-checked with standard tools
// (`python3 -c "import zlib, sys; print(zlib.crc32(...))"`).
//
// Crc32::update dispatches at runtime between two flavours that compute
// the same value (util/crc32.cpp):
//
//   slice-by-8  portable; eight table lookups per 8 input bytes, loaded
//               with little-endian memcpy (big-endian hosts run the
//               bytewise loop instead).
//   pclmul      4x128-bit carry-less-multiply folding (Intel, "Fast CRC
//               Computation for Generic Polynomials Using PCLMULQDQ",
//               2009) over the 16-byte-aligned bulk of any update of
//               64 bytes or more; the head and tail bytes go through
//               slice-by-8. Selected when the CPU reports PCLMULQDQ and
//               SSE4.1, unless STCACHE_SIMD=0 (which also forces the
//               scalar stack-sweep kernel) or set_crc32_simd(false).
//
// The bytewise table loop below stays as the reference the differential
// tests (tests/crc32_test.cpp) compare both flavours against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace stcache {

namespace detail {

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}();

// Reference: one table lookup per byte over the raw (pre-inverted)
// register state.
inline std::uint32_t crc32_update_bytewise(std::uint32_t state,
                                           const unsigned char* p,
                                           std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    state = kCrc32Table[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

// The dispatched update over the raw register state.
std::uint32_t crc32_update(std::uint32_t state, const void* data,
                           std::size_t len);

}  // namespace detail

// True when the PCLMULQDQ flavour is compiled in AND the running CPU
// supports it.
bool crc32_simd_available();
// available() && not disabled (STCACHE_SIMD=0 or set_crc32_simd(false)).
bool crc32_simd_enabled();
// Force the PCLMULQDQ flavour on/off (clamped to availability). Test-only,
// like set_stack_sweep_simd: lets one process check both flavours.
void set_crc32_simd(bool on);

// Incremental CRC-32 accumulator: feed bytes in any chunking, read value().
class Crc32 {
 public:
  void update(const void* data, std::size_t len) {
    state_ = detail::crc32_update(state_, data, len);
  }

  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

// One-shot convenience.
inline std::uint32_t crc32(const void* data, std::size_t len) {
  Crc32 crc;
  crc.update(data, len);
  return crc.value();
}

}  // namespace stcache
