#include "serve/wire.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "util/crc32.hpp"
#include "util/error.hpp"

namespace stcache::serve {

namespace {

// --- little-endian scalar helpers -------------------------------------------

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// Bulk u32 arrays (CHUNK words). Little-endian on the wire is the
// in-memory layout of a little-endian host, so there both directions are
// one memcpy; other hosts keep the explicit byte loop.
void put_u32s(std::uint8_t* dst, std::span<const std::uint32_t> words) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, words.data(), 4 * words.size());
  } else {
    for (std::uint32_t w : words) {
      for (int i = 0; i < 4; ++i) {
        *dst++ = static_cast<std::uint8_t>(w >> (8 * i));
      }
    }
  }
}

void get_u32s(std::uint32_t* dst, const std::uint8_t* src, std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, 4 * count);
  } else {
    for (std::size_t i = 0; i < count; ++i) dst[i] = get_u32(src + 4 * i);
  }
}

// CacheStats counters in cache/stats.hpp declaration order — the VERDICT
// payload contract (17 × u64 per configuration).
constexpr std::size_t kStatsFields = 17;

void put_stats(std::vector<std::uint8_t>& out, const CacheStats& s) {
  put_u64(out, s.accesses);
  put_u64(out, s.read_accesses);
  put_u64(out, s.write_accesses);
  put_u64(out, s.hits);
  put_u64(out, s.misses);
  put_u64(out, s.fill_bytes);
  put_u64(out, s.writeback_bytes);
  put_u64(out, s.reconfig_writeback_bytes);
  put_u64(out, s.write_through_bytes);
  put_u64(out, s.wt_store_misses);
  put_u64(out, s.victim_probes);
  put_u64(out, s.victim_hits);
  put_u64(out, s.pred_accesses);
  put_u64(out, s.pred_first_hits);
  put_u64(out, s.pred_mispredicts);
  put_u64(out, s.cycles);
  put_u64(out, s.stall_cycles);
}

CacheStats get_stats(const std::uint8_t* p) {
  CacheStats s;
  std::size_t at = 0;
  auto next = [&] { return get_u64(p + 8 * at++); };
  s.accesses = next();
  s.read_accesses = next();
  s.write_accesses = next();
  s.hits = next();
  s.misses = next();
  s.fill_bytes = next();
  s.writeback_bytes = next();
  s.reconfig_writeback_bytes = next();
  s.write_through_bytes = next();
  s.wt_store_misses = next();
  s.victim_probes = next();
  s.victim_hits = next();
  s.pred_accesses = next();
  s.pred_first_hits = next();
  s.pred_mispredicts = next();
  s.cycles = next();
  s.stall_cycles = next();
  return s;
}

}  // namespace

const char* to_string(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kProtocol: return "protocol";
    case WireErrorCode::kChunkCrc: return "chunk-crc";
    case WireErrorCode::kEmptyStream: return "empty-stream";
    case WireErrorCode::kOverload: return "overload";
    case WireErrorCode::kInternal: return "internal";
    case WireErrorCode::kTimeout: return "timeout";
  }
  return "?";
}

// --- payload encode/decode --------------------------------------------------

std::vector<std::uint8_t> encode_hello(bool instruction,
                                       std::uint16_t version) {
  std::vector<std::uint8_t> out;
  out.insert(out.end(), kHelloMagic, kHelloMagic + 4);
  put_u16(out, version);
  out.push_back(instruction ? 0 : 1);
  out.push_back(0);  // reserved
  return out;
}

Hello decode_hello(std::span<const std::uint8_t> payload) {
  if (payload.size() != 8) fail("hello: payload must be 8 bytes");
  if (std::memcmp(payload.data(), kHelloMagic, 4) != 0) {
    fail("hello: bad magic");
  }
  Hello hello;
  hello.version = get_u16(payload.data() + 4);
  if (hello.version < kMinProtocolVersion || hello.version > kProtocolVersion) {
    fail("hello: unsupported protocol version " + std::to_string(hello.version));
  }
  const std::uint8_t stream = payload[6];
  if (stream > 1) fail("hello: bad stream selector");
  if (payload[7] != 0) fail("hello: reserved byte must be zero");
  hello.instruction = stream == 0;
  return hello;
}

void encode_chunk(std::span<const std::uint32_t> words,
                  std::vector<std::uint8_t>& out) {
  STC_ASSERT(!words.empty() && words.size() <= kMaxChunkWords,
             "encode_chunk: bad word count");
  out.resize(8 + 4 * words.size());
  put_u32s(out.data() + 8, words);
  const std::uint32_t header[2] = {static_cast<std::uint32_t>(words.size()),
                                   crc32(out.data() + 8, 4 * words.size())};
  put_u32s(out.data(), header);
}

std::vector<std::uint8_t> encode_chunk(std::span<const std::uint32_t> words) {
  std::vector<std::uint8_t> out;
  encode_chunk(words, out);
  return out;
}

void decode_chunk(std::span<const std::uint8_t> payload, PooledChunk& out) {
  if (payload.size() < 8) fail("chunk: truncated header");
  const std::uint32_t count = get_u32(payload.data());
  if (count == 0 || count > kMaxChunkWords) {
    fail("chunk: bad word count " + std::to_string(count));
  }
  if (payload.size() != 8 + std::size_t{4} * count) {
    fail("chunk: payload length does not match word count");
  }
  const std::uint32_t declared = get_u32(payload.data() + 4);
  const std::uint32_t actual = crc32(payload.data() + 8, std::size_t{4} * count);
  if (declared != actual) fail("chunk: crc mismatch");
  if (out.words.size() < count) out.words.resize(count);
  get_u32s(out.words.data(), payload.data() + 8, count);
  out.count = count;
}

std::vector<std::uint8_t> encode_verdict(std::uint64_t accesses,
                                         std::span<const CacheStats> stats) {
  std::vector<std::uint8_t> out;
  out.reserve(12 + stats.size() * kStatsFields * 8);
  put_u64(out, accesses);
  put_u32(out, static_cast<std::uint32_t>(stats.size()));
  for (const CacheStats& s : stats) put_stats(out, s);
  return out;
}

Verdict decode_verdict(std::span<const std::uint8_t> payload) {
  if (payload.size() < 12) fail("verdict: truncated header");
  Verdict v;
  v.accesses = get_u64(payload.data());
  const std::uint32_t n = get_u32(payload.data() + 8);
  if (n == 0 || n > 4096) fail("verdict: bad config count");
  if (payload.size() != 12 + std::size_t{n} * kStatsFields * 8) {
    fail("verdict: payload length does not match config count");
  }
  v.stats.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    v.stats.push_back(get_stats(payload.data() + 12 + std::size_t{i} * kStatsFields * 8));
  }
  return v;
}

std::vector<std::uint8_t> encode_error(WireErrorCode code,
                                       const std::string& message,
                                       std::uint16_t retry_after_ms) {
  std::vector<std::uint8_t> out;
  put_u16(out, static_cast<std::uint16_t>(code));
  put_u16(out, retry_after_ms);  // reserved-zero in protocol v1
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

WireError decode_error(std::span<const std::uint8_t> payload) {
  if (payload.size() < 4) fail("error frame: truncated header");
  WireError e;
  e.code = static_cast<WireErrorCode>(get_u16(payload.data()));
  e.retry_after_ms = get_u16(payload.data() + 2);
  e.message.assign(payload.begin() + 4, payload.end());
  return e;
}

// --- framed socket I/O ------------------------------------------------------

namespace {

// Block until `fd` is ready for `events` or `deadline` passes; throws
// WireTimeout on expiry. POLLERR/POLLHUP readiness is returned to the
// caller — the subsequent recv/send surfaces the real errno (or EOF).
void poll_or_timeout(int fd, short events, WireDeadline deadline,
                     const char* what) {
  while (true) {
    const auto now = WireClock::now();
    if (now >= deadline) {
      throw WireTimeout(std::string(what) + ": deadline expired");
    }
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - now).count();
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(
        &pfd, 1,
        static_cast<int>(std::min<long long>(left, 60'000)));  // re-check hour+
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail(std::string(what) + ": poll: " + std::strerror(errno));
    }
    if (rc > 0) return;  // ready (or error/hup: let recv/send report it)
  }
}

void write_all(int fd, const void* data, std::size_t len,
               WireDeadline deadline) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    // MSG_NOSIGNAL: a peer that closed mid-write surfaces as EPIPE, not a
    // process-killing SIGPIPE. Under a deadline the send is non-blocking
    // and gated by poll(): a blocking send() may not return until the
    // WHOLE buffer is queued, which would sail past the deadline.
    const bool bounded = deadline != kNoWireDeadline;
    if (bounded) poll_or_timeout(fd, POLLOUT, deadline, "socket write");
    const ssize_t n =
        ::send(fd, p, len, MSG_NOSIGNAL | (bounded ? MSG_DONTWAIT : 0));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (bounded && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      fail(std::string("socket write: ") + std::strerror(errno));
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

// false only on EOF before the first byte; throws on mid-buffer EOF, and
// WireTimeout once `deadline` passes.
bool read_exact(int fd, void* data, std::size_t len, WireDeadline deadline) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < len) {
    const bool bounded = deadline != kNoWireDeadline;
    if (bounded) poll_or_timeout(fd, POLLIN, deadline, "socket read");
    const ssize_t n =
        ::recv(fd, p + got, len - got, bounded ? MSG_DONTWAIT : 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (bounded && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      fail(std::string("socket read: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) return false;
      fail("socket read: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void write_frame(int fd, FrameType type, std::span<const std::uint8_t> payload,
                 WireDeadline deadline) {
  std::uint8_t header[5];
  header[0] = static_cast<std::uint8_t>(type);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  header[1] = static_cast<std::uint8_t>(len);
  header[2] = static_cast<std::uint8_t>(len >> 8);
  header[3] = static_cast<std::uint8_t>(len >> 16);
  header[4] = static_cast<std::uint8_t>(len >> 24);
  write_all(fd, header, sizeof header, deadline);
  if (!payload.empty()) write_all(fd, payload.data(), payload.size(), deadline);
}

bool read_frame(int fd, Frame& out, std::size_t max_payload,
                WireDeadline deadline) {
  std::uint8_t header[5];
  if (!read_exact(fd, header, sizeof header, deadline)) return false;
  if (header[0] < static_cast<std::uint8_t>(FrameType::kHello) ||
      header[0] > static_cast<std::uint8_t>(FrameType::kError)) {
    fail("frame: unknown type " + std::to_string(header[0]));
  }
  out.type = static_cast<FrameType>(header[0]);
  const std::uint32_t len = get_u32(header + 1);
  if (len > max_payload) {
    fail("frame: declared payload " + std::to_string(len) + " exceeds limit");
  }
  out.payload.resize(len);
  if (len > 0 && !read_exact(fd, out.payload.data(), len, deadline)) {
    fail("frame: connection closed mid-frame");
  }
  return true;
}

// --- unix-domain sockets ----------------------------------------------------

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    fail("unix socket path too long: '" + path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

int unix_listen(const std::string& path, int backlog) {
  const sockaddr_un addr = make_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail(std::string("socket: ") + std::strerror(errno));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    if (errno == EADDRINUSE) {
      // A stale socket file from a dead daemon is reclaimed; a live one is
      // a real conflict (detected by a successful connect).
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool live =
          probe >= 0 &&
          ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) == 0;
      if (probe >= 0) ::close(probe);
      if (!live && ::unlink(path.c_str()) == 0 &&
          ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
              0) {
        // reclaimed the stale path
      } else {
        ::close(fd);
        fail("bind '" + path + "': address already in use");
      }
    } else {
      const std::string why = std::strerror(errno);
      ::close(fd);
      fail("bind '" + path + "': " + why);
    }
  }
  if (::listen(fd, backlog) < 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    fail("listen '" + path + "': " + why);
  }
  return fd;
}

int unix_connect(const std::string& path) {
  const sockaddr_un addr = make_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail(std::string("socket: ") + std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    fail("connect '" + path + "': " + why);
  }
  return fd;
}

}  // namespace stcache::serve
