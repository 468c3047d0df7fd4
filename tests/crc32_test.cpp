// Differential tests of the dispatched CRC-32 (util/crc32.hpp): both
// flavours (slice-by-8, PCLMULQDQ folding) against the bytewise reference
// loop over every length 0..1024 at every 16-byte misalignment, chunking
// invariance across the folding routine's 64- and 16-byte edges, zlib
// check values, and the runtime dispatch rule itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace stcache {
namespace {

std::uint32_t reference_crc(const unsigned char* p, std::size_t len) {
  return detail::crc32_update_bytewise(0xFFFFFFFFu, p, len) ^ 0xFFFFFFFFu;
}

// The same LCG byte stream the zlib check values below were computed on
// (x = x * 1103515245 + 12345 mod 2^32, byte = bits 16..23).
std::vector<unsigned char> lcg_bytes(std::size_t n) {
  std::vector<unsigned char> out(n);
  std::uint32_t x = 1;
  for (unsigned char& b : out) {
    x = x * 1103515245u + 12345u;
    b = static_cast<unsigned char>(x >> 16);
  }
  return out;
}

// Runs `body` once with each flavour the host can execute, restoring the
// PCLMULQDQ flavour (when available) afterwards.
template <class Body>
void for_each_flavour(Body body) {
  for (const bool simd : {false, true}) {
    if (simd && !crc32_simd_available()) continue;
    set_crc32_simd(simd);
    SCOPED_TRACE(simd ? "pclmul" : "slice-by-8");
    body();
  }
  set_crc32_simd(true);
}

TEST(Crc32, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(reference_crc(reinterpret_cast<const unsigned char*>(check), 9),
            0xCBF43926u);
  for_each_flavour([&] { EXPECT_EQ(crc32(check, 9), 0xCBF43926u); });
}

TEST(Crc32, MatchesZlibOnLargeBuffers) {
  // python3 -c 'import zlib; ...' over lcg_bytes(1 << 20) and its first
  // 1000 bytes.
  const std::vector<unsigned char> buf = lcg_bytes(std::size_t{1} << 20);
  for_each_flavour([&] {
    EXPECT_EQ(crc32(buf.data(), buf.size()), 0x300B6991u);
    EXPECT_EQ(crc32(buf.data(), 1000), 0x1F52FD1Cu);
  });
}

TEST(Crc32, EveryLengthAndMisalignmentMatchesBytewise) {
  const std::vector<unsigned char> buf = lcg_bytes(1024 + 16);
  for_each_flavour([&] {
    for (std::size_t off = 0; off < 16; ++off) {
      for (std::size_t len = 0; len <= 1024; ++len) {
        const unsigned char* p = buf.data() + off;
        ASSERT_EQ(crc32(p, len), reference_crc(p, len))
            << "len " << len << " misalignment " << off;
      }
    }
  });
}

TEST(Crc32, IncrementalSplitsMatchOneShot) {
  // Piece sizes cluster around the folding edges (16- and 64-byte blocks,
  // the 64-byte minimum), so pieces land on both sides of every edge at
  // every alignment.
  const std::vector<unsigned char> buf = lcg_bytes(64 * 1024);
  const std::uint32_t whole = reference_crc(buf.data(), buf.size());
  constexpr std::size_t kEdges[] = {0,  1,  15, 16,  17,  63, 64,
                                    65, 79, 80, 127, 128, 129};
  for_each_flavour([&] {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      Rng rng(seed);
      Crc32 crc;
      std::size_t at = 0;
      while (at < buf.size()) {
        std::size_t piece = rng.next_below(2) == 0
                                ? kEdges[rng.next_below(std::size(kEdges))]
                                : rng.next_below(4096);
        piece = std::min(piece, buf.size() - at);
        crc.update(buf.data() + at, piece);
        at += piece;
      }
      ASSERT_EQ(crc.value(), whole) << "seed " << seed;
    }
  });
}

TEST(Crc32, DispatcherPicksPclmulWhenTheCpuHasIt) {
  // A build or dispatch regression that silently falls back to the
  // portable flavour passes every value test; this catches it.
#if defined(__x86_64__) || defined(__i386__)
  const bool cpu = __builtin_cpu_supports("pclmul") &&
                   __builtin_cpu_supports("sse4.1");
#else
  const bool cpu = false;
#endif
  EXPECT_EQ(crc32_simd_available(), cpu);
  set_crc32_simd(true);
  EXPECT_EQ(crc32_simd_enabled(), cpu);
  set_crc32_simd(false);
  EXPECT_FALSE(crc32_simd_enabled());
  set_crc32_simd(true);
}

}  // namespace
}  // namespace stcache
