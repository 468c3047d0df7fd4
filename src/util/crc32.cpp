#include "util/crc32.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>

// The PCLMULQDQ flavour needs no special compile flags: only the folding
// routine and its helpers carry a function-level target attribute, so the
// compiler emits those instructions nowhere else, and the CPU is checked
// at runtime before the routine is ever called.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define STCACHE_CRC32_PCLMUL 1
#include <immintrin.h>
#endif

namespace stcache {

namespace {

// --- slice-by-8 ----------------------------------------------------------------

// kSlice8[k][b]: the register contribution of byte b followed by k zero
// bytes; kSlice8[0] is the bytewise table.
constexpr std::array<std::array<std::uint32_t, 256>, 8> kSlice8 = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  t[0] = detail::kCrc32Table;
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = t[k - 1][b];
      t[k][b] = (prev >> 8) ^ detail::kCrc32Table[prev & 0xFFu];
    }
  }
  return t;
}();

std::uint32_t update_slice8(std::uint32_t state, const unsigned char* p,
                            std::size_t len) {
  if constexpr (std::endian::native == std::endian::little) {
    while (len >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= state;
      state = kSlice8[7][lo & 0xFFu] ^ kSlice8[6][(lo >> 8) & 0xFFu] ^
              kSlice8[5][(lo >> 16) & 0xFFu] ^ kSlice8[4][lo >> 24] ^
              kSlice8[3][hi & 0xFFu] ^ kSlice8[2][(hi >> 8) & 0xFFu] ^
              kSlice8[1][(hi >> 16) & 0xFFu] ^ kSlice8[0][hi >> 24];
      p += 8;
      len -= 8;
    }
  }
  return detail::crc32_update_bytewise(state, p, len);
}

// --- PCLMULQDQ folding -----------------------------------------------------------

#if defined(STCACHE_CRC32_PCLMUL)

#define STCACHE_PCLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

STCACHE_PCLMUL_TARGET inline __m128i load128(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// a.lo*k.lo ^ a.hi*k.hi (one fold step in the reflected domain), plus the
// next block.
STCACHE_PCLMUL_TARGET inline __m128i fold(__m128i a, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Folds `len` bytes (len >= 64, a multiple of 16) into the raw register
// state. Four 128-bit accumulators fold 64 bytes per step by x^(512±32)
// mod P; they then fold into one, which absorbs any further 16-byte
// blocks, and the final 128 bits reduce to 32 via a 64-bit fold and a
// Barrett step. Constants are the bit-reflected ones of the 2009 paper
// for the IEEE polynomial.
STCACHE_PCLMUL_TARGET std::uint32_t fold_pclmul(std::uint32_t state,
                                                const unsigned char* p,
                                                std::size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  p += 64;
  len -= 64;
  while (len >= 64) {
    x0 = fold(x0, k1k2, load128(p));
    x1 = fold(x1, k1k2, load128(p + 16));
    x2 = fold(x2, k1k2, load128(p + 32));
    x3 = fold(x3, k1k2, load128(p + 48));
    p += 64;
    len -= 64;
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  while (len >= 16) {
    x0 = fold(x0, k3k4, load128(p));
    p += 16;
    len -= 16;
  }
  // 128 -> 64 bits.
  x1 = _mm_clmulepi64_si128(x0, k3k4, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), x1);
  x1 = _mm_srli_si128(x0, 4);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00);
  x0 = _mm_xor_si128(x0, x1);
  // Barrett reduction to 32 bits.
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x00);
  x0 = _mm_xor_si128(x0, x1);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x0, 1));
}

bool cpu_has_pclmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#else

bool cpu_has_pclmul() { return false; }

#endif  // STCACHE_CRC32_PCLMUL

// -1: follow the STCACHE_SIMD environment variable (default on, read
// once); 0 / 1: forced by set_crc32_simd().
std::atomic<int> g_simd_override{-1};

bool simd_env_enabled() {
  const char* v = std::getenv("STCACHE_SIMD");
  return v == nullptr || std::string(v) != "0";
}

}  // namespace

bool crc32_simd_available() {
  static const bool avail = cpu_has_pclmul();
  return avail;
}

bool crc32_simd_enabled() {
  if (!crc32_simd_available()) return false;
  const int ovr = g_simd_override.load(std::memory_order_relaxed);
  if (ovr >= 0) return ovr != 0;
  static const bool env = simd_env_enabled();
  return env;
}

void set_crc32_simd(bool on) {
  g_simd_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

namespace detail {

std::uint32_t crc32_update(std::uint32_t state, const void* data,
                           std::size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
#if defined(STCACHE_CRC32_PCLMUL)
  if (len >= 64 && crc32_simd_enabled()) {
    // Slice-by-8 up to a 16-byte boundary, fold the aligned bulk, and
    // leave the sub-16-byte tail to slice-by-8 below.
    const std::size_t head = (0 - reinterpret_cast<std::uintptr_t>(p)) & 15u;
    if (len - head >= 64) {
      state = update_slice8(state, p, head);
      const std::size_t bulk = (len - head) & ~std::size_t{15};
      state = fold_pclmul(state, p + head, bulk);
      p += head + bulk;
      len -= head + bulk;
    }
  }
#endif
  return update_slice8(state, p, len);
}

}  // namespace detail

}  // namespace stcache
