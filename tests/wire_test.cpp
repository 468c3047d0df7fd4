// Edge-of-contract tests of the wire layer (serve/wire.hpp): frame-size
// boundaries (exactly at the 4 MiB cap, one byte over), degenerate CHUNK
// payloads, torn length prefixes, deadline-bounded I/O, and the protocol
// v1/v2 negotiation rules (retry-after field, version window). Every
// blocking call in here carries a deadline, so a regression that would
// hang surfaces as a WireTimeout failure, never a stuck test.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/wire.hpp"
#include "trace/shard.hpp"
#include "util/error.hpp"

namespace stcache {
namespace {

using serve::Frame;
using serve::FrameType;
using serve::Hello;
using serve::WireError;
using serve::WireErrorCode;
using serve::WireTimeout;
using serve::kMaxFramePayload;
using serve::wire_deadline_after;

// A connected SOCK_STREAM pair; both ends close on destruction.
struct Pair {
  int a = -1;
  int b = -1;
  Pair() {
    int fds[2];
    STC_ASSERT(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
               "socketpair failed");
    a = fds[0];
    b = fds[1];
  }
  ~Pair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

// --- frame-size boundary ------------------------------------------------------

TEST(Wire, FrameExactlyAtTheCapRoundTrips) {
  Pair p;
  std::vector<std::uint8_t> payload(kMaxFramePayload);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  // The payload dwarfs the kernel socket buffer: writer on its own thread.
  std::thread writer([&] {
    serve::write_frame(p.a, FrameType::kChunk, payload,
                       wire_deadline_after(30'000));
  });
  Frame frame;
  ASSERT_TRUE(serve::read_frame(p.b, frame, kMaxFramePayload,
                                wire_deadline_after(30'000)));
  writer.join();
  EXPECT_EQ(frame.type, FrameType::kChunk);
  EXPECT_EQ(frame.payload, payload);
}

TEST(Wire, FrameOneByteOverTheCapIsRejectedBeforeAllocation) {
  Pair p;
  // Hand-rolled header declaring cap+1 bytes — and nothing behind it: the
  // reject must happen on the declared length alone, with no payload read
  // (an over-read would block and trip the deadline instead).
  const std::uint32_t len = static_cast<std::uint32_t>(kMaxFramePayload) + 1;
  const std::uint8_t header[5] = {
      static_cast<std::uint8_t>(FrameType::kChunk),
      static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 24)};
  ASSERT_EQ(::send(p.a, header, sizeof header, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof header));
  Frame frame;
  try {
    serve::read_frame(p.b, frame, kMaxFramePayload, wire_deadline_after(2'000));
    FAIL() << "expected a protocol error";
  } catch (const WireTimeout&) {
    FAIL() << "read_frame tried to read the oversized payload";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds limit"), std::string::npos);
  }
}

// --- degenerate CHUNK payloads -----------------------------------------------

TEST(Wire, ZeroLengthChunkPayloadIsATypedError) {
  // A CHUNK frame with an empty payload parses at the frame layer (the
  // length prefix is honest) and must die in decode_chunk, not crash it.
  PooledChunk chunk;
  EXPECT_THROW(serve::decode_chunk({}, chunk), Error);
  try {
    serve::decode_chunk({}, chunk);
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk"), std::string::npos);
  }
}

TEST(Wire, ZeroWordCountChunkIsATypedError) {
  // Structurally complete header declaring zero words: rejected on the
  // count, before any CRC work.
  const std::uint8_t payload[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  PooledChunk chunk;
  try {
    serve::decode_chunk(std::span<const std::uint8_t>(payload, 8), chunk);
    FAIL() << "expected a bad-word-count error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad word count"), std::string::npos);
  }
}

// --- torn length prefixes ----------------------------------------------------

TEST(Wire, TornLengthPrefixDiagnosesMidFrameEof) {
  // A valid header cut after 1..4 bytes then EOF: every cut must produce
  // the mid-frame diagnosis immediately — no hang, no over-read.
  const std::uint8_t header[5] = {static_cast<std::uint8_t>(FrameType::kFin),
                                  0, 0, 0, 0};
  for (std::size_t cut = 1; cut <= 4; ++cut) {
    Pair p;
    ASSERT_EQ(::send(p.a, header, cut, MSG_NOSIGNAL),
              static_cast<ssize_t>(cut));
    ::shutdown(p.a, SHUT_WR);
    Frame frame;
    try {
      serve::read_frame(p.b, frame, kMaxFramePayload,
                        wire_deadline_after(2'000));
      FAIL() << "expected mid-frame EOF at cut " << cut;
    } catch (const WireTimeout&) {
      FAIL() << "read_frame hung on the torn prefix at cut " << cut;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("mid-frame"), std::string::npos)
          << "cut " << cut;
    }
  }
}

TEST(Wire, EofAtAFrameBoundaryIsClean) {
  Pair p;
  ::shutdown(p.a, SHUT_WR);
  Frame frame;
  EXPECT_FALSE(serve::read_frame(p.b, frame, kMaxFramePayload,
                                 wire_deadline_after(2'000)));
}

// --- deadlines ---------------------------------------------------------------

TEST(Wire, ReadDeadlineThrowsWireTimeout) {
  Pair p;  // nothing ever written
  Frame frame;
  const auto t0 = serve::WireClock::now();
  EXPECT_THROW(serve::read_frame(p.b, frame, kMaxFramePayload,
                                 wire_deadline_after(100)),
               WireTimeout);
  EXPECT_GE(serve::WireClock::now() - t0, std::chrono::milliseconds(90));
}

TEST(Wire, WriteDeadlineThrowsWhenThePeerStallsForever) {
  Pair p;  // the peer never reads: the kernel buffer fills, then blocks
  std::vector<std::uint8_t> payload(kMaxFramePayload, 0xab);
  EXPECT_THROW(serve::write_frame(p.a, FrameType::kChunk, payload,
                                  wire_deadline_after(150)),
               WireTimeout);
}

TEST(Wire, UnboundedCallsStillWorkWithTheDefaultDeadline) {
  Pair p;
  const std::vector<std::uint8_t> hello = serve::encode_hello(true);
  serve::write_frame(p.a, FrameType::kHello, hello);  // kNoWireDeadline
  Frame frame;
  ASSERT_TRUE(serve::read_frame(p.b, frame));
  EXPECT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(frame.payload, hello);
}

// --- protocol v1/v2 negotiation ----------------------------------------------

TEST(Wire, HelloVersionWindowIsOneToTwo) {
  const Hello v2 = serve::decode_hello(serve::encode_hello(false));
  EXPECT_EQ(v2.version, serve::kProtocolVersion);
  EXPECT_FALSE(v2.instruction);

  // A v1 client is still spoken to.
  const Hello v1 = serve::decode_hello(serve::encode_hello(true, 1));
  EXPECT_EQ(v1.version, 1);
  EXPECT_TRUE(v1.instruction);

  // Versions outside the window are typed protocol errors.
  EXPECT_THROW(serve::decode_hello(serve::encode_hello(true, 0)), Error);
  EXPECT_THROW(serve::decode_hello(serve::encode_hello(true, 3)), Error);
}

TEST(Wire, ErrorRetryAfterRoundTripsAndDefaultsToZero) {
  const WireError shed = serve::decode_error(
      serve::encode_error(WireErrorCode::kOverload, "draining", 125));
  EXPECT_EQ(shed.code, WireErrorCode::kOverload);
  EXPECT_EQ(shed.retry_after_ms, 125);
  EXPECT_EQ(shed.message, "draining");

  // The v1 encoding (reserved field zero) reads back as "no hint".
  const WireError v1 = serve::decode_error(
      serve::encode_error(WireErrorCode::kProtocol, "bad frame"));
  EXPECT_EQ(v1.retry_after_ms, 0);
}

TEST(Wire, TimeoutCodeIsNamed) {
  EXPECT_STREQ(serve::to_string(WireErrorCode::kTimeout), "timeout");
}

// --- CHUNK golden bytes -------------------------------------------------------

// The bulk little-endian codec must emit exactly the bytes the per-byte
// codec did: count, CRC-32, then each word, all little-endian. The CRC is
// zlib's over the 20 word bytes (python3 -c 'import zlib, struct;
// print(hex(zlib.crc32(struct.pack("<5I", 1, 0x80000010, 0xDEADBEEF,
// 0x12345678, 0x7FFFFFFF))))' -> 0x12181da6).
TEST(Wire, ChunkEncodingIsPinnedToGoldenBytes) {
  const std::vector<std::uint32_t> words = {0x00000001u, 0x80000010u,
                                            0xDEADBEEFu, 0x12345678u,
                                            0x7FFFFFFFu};
  const std::vector<std::uint8_t> golden = {
      0x05, 0x00, 0x00, 0x00, 0xA6, 0x1D, 0x18, 0x12, 0x01, 0x00,
      0x00, 0x00, 0x10, 0x00, 0x00, 0x80, 0xEF, 0xBE, 0xAD, 0xDE,
      0x78, 0x56, 0x34, 0x12, 0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_EQ(serve::encode_chunk(words), golden);

  // The buffer-reusing overload writes the same bytes, whatever the
  // buffer held before.
  std::vector<std::uint8_t> reused(4096, 0xAB);
  serve::encode_chunk(words, reused);
  EXPECT_EQ(reused, golden);

  PooledChunk chunk;
  serve::decode_chunk(golden, chunk);
  ASSERT_EQ(chunk.count, words.size());
  EXPECT_EQ(std::vector<std::uint32_t>(chunk.valid_words().begin(),
                                       chunk.valid_words().end()),
            words);
}

TEST(Wire, OddWordCountsRoundTripThroughTheBulkCodec) {
  std::vector<std::uint8_t> payload;
  PooledChunk chunk;
  for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                              serve::kMaxChunkWords}) {
    std::vector<std::uint32_t> words(n);
    for (std::size_t i = 0; i < n; ++i) {
      words[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    serve::encode_chunk(words, payload);
    ASSERT_EQ(payload.size(), 8 + 4 * n);
    serve::decode_chunk(payload, chunk);
    ASSERT_EQ(chunk.count, n);
    EXPECT_TRUE(std::equal(words.begin(), words.end(), chunk.words.begin()))
        << n << " words";
  }
  // A flipped word bit must still trip the CRC on the bulk path.
  serve::encode_chunk(std::vector<std::uint32_t>{1, 2, 3}, payload);
  payload[8 + 4 + 1] ^= 0x01;
  try {
    serve::decode_chunk(payload, chunk);
    FAIL() << "corrupted chunk was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("crc"), std::string::npos);
  }
}

}  // namespace
}  // namespace stcache
