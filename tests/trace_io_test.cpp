// Tests of the binary trace file format (trace/trace_io.hpp).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stcache {
namespace {

Trace random_trace(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Trace t;
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.addr = rng.next_u32();
    r.kind = static_cast<AccessKind>(rng.next_below(3));
    t.push_back(r);
  }
  return t;
}

TEST(TraceIo, RoundTripEmpty) {
  std::stringstream ss;
  write_trace(ss, {});
  EXPECT_EQ(read_trace(ss), Trace{});
}

TEST(TraceIo, RoundTripSmall) {
  const Trace t = {{0x1234, AccessKind::kIFetch},
                   {0xDEADBEEF, AccessKind::kWrite},
                   {0x0, AccessKind::kRead}};
  std::stringstream ss;
  write_trace(ss, t);
  EXPECT_EQ(read_trace(ss), t);
}

TEST(TraceIo, RoundTripLargeRandom) {
  const Trace t = random_trace(42, 100'000);
  std::stringstream ss;
  write_trace(ss, t);
  EXPECT_EQ(read_trace(ss), t);
}

TEST(TraceIo, FormatIsCompact) {
  const Trace t = random_trace(1, 1000);
  std::stringstream ss;
  write_trace(ss, t);
  // header + 5 B/record + u32 CRC footer
  EXPECT_EQ(ss.str().size(), 16u + 5u * 1000u + 4u);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "NOPE0000000000000000";
  EXPECT_THROW(read_trace(ss), Error);
}

TEST(TraceIo, RejectsWrongVersion) {
  std::stringstream ss;
  write_trace(ss, {{1, AccessKind::kRead}});
  std::string bytes = ss.str();
  bytes[4] = 99;  // corrupt version field
  std::stringstream corrupted(bytes);
  EXPECT_THROW(read_trace(corrupted), Error);
}

TEST(TraceIo, RejectsTruncatedFile) {
  const Trace t = random_trace(2, 100);
  std::stringstream ss;
  write_trace(ss, t);
  std::string bytes = ss.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() - 3));
  EXPECT_THROW(read_trace(truncated), Error);
}

TEST(TraceIo, RejectsInvalidKind) {
  std::stringstream ss;
  write_trace(ss, {{1, AccessKind::kRead}});
  std::string bytes = ss.str();
  bytes[16] = 7;  // invalid AccessKind in the first record
  std::stringstream corrupted(bytes);
  EXPECT_THROW(read_trace(corrupted), Error);
}

// Strip the v2 CRC footer and stamp the version field back to 1: the result
// is byte-for-byte what the v1 writer produced, and must still load.
TEST(TraceIo, AcceptsVersion1WithoutFooter) {
  const Trace t = random_trace(7, 500);
  std::stringstream ss;
  write_trace(ss, t);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() - 4);  // drop the CRC footer
  bytes[4] = 1;                    // format version 1
  std::stringstream v1(bytes);
  EXPECT_EQ(read_trace(v1), t);
}

// An address bit-flip leaves every kind byte valid, so only the CRC footer
// can catch it.
TEST(TraceIo, DetectsFlippedAddressBit) {
  const Trace t = random_trace(8, 200);
  std::stringstream ss;
  write_trace(ss, t);
  std::string bytes = ss.str();
  bytes[16 + 5 * 100 + 2] ^= 0x10;  // record 100, middle address byte
  std::stringstream corrupted(bytes);
  try {
    read_trace(corrupted);
    FAIL() << "corrupted payload was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(TraceIo, DetectsCorruptedFooter) {
  const Trace t = random_trace(9, 50);
  std::stringstream ss;
  write_trace(ss, t);
  std::string bytes = ss.str();
  bytes.back() ^= 0x01;  // flip a bit in the stored CRC itself
  std::stringstream corrupted(bytes);
  EXPECT_THROW(read_trace(corrupted), Error);
}

TEST(TraceIo, RejectsMissingFooter) {
  const Trace t = random_trace(10, 50);
  std::stringstream ss;
  write_trace(ss, t);
  std::string bytes = ss.str();
  bytes.resize(bytes.size() - 4);  // v2 header but no footer
  std::stringstream truncated(bytes);
  EXPECT_THROW(read_trace(truncated), Error);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "stc_trace_io_test.stct")
          .string();
  const Trace t = random_trace(3, 5000);
  save_trace(path, t);
  EXPECT_EQ(load_trace(path), t);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/dir/trace.stct"), Error);
}

// The out-parameter overloads must behave like the by-value forms while
// reusing the buffer: rereading into a vector that already held a larger
// trace clears the stale records and keeps the capacity.
TEST(TraceIo, OutParamOverloadsReuseBuffer) {
  const Trace big = random_trace(7, 10'000);
  const Trace small = random_trace(8, 100);

  std::stringstream ss;
  write_trace(ss, big);
  Trace out;
  read_trace(ss, out);
  EXPECT_EQ(out, big);
  const std::size_t cap = out.capacity();

  std::stringstream ss2;
  write_trace(ss2, small);
  read_trace(ss2, out);
  EXPECT_EQ(out, small);
  EXPECT_EQ(out.capacity(), cap);  // no reallocation for the smaller read

  const std::string path =
      (std::filesystem::temp_directory_path() / "stc_trace_io_reuse.stct")
          .string();
  save_trace(path, big);
  load_trace(path, out);
  EXPECT_EQ(out, big);
  std::remove(path.c_str());
}

// --- golden bytes ---------------------------------------------------------------

// One small STCT v2 file pinned byte for byte, footer included: the
// footer is zlib's CRC-32 over the 15 record bytes (python3 -c 'import
// zlib, struct; print(hex(zlib.crc32(struct.pack("<BIBIBI", 0, 0x1234,
// 2, 0xDEADBEEF, 1, 0))))' -> 0xa0dc670a).
TEST(TraceIo, SmallFileIsPinnedToGoldenBytes) {
  const Trace t = {{0x1234, AccessKind::kIFetch},
                   {0xDEADBEEF, AccessKind::kWrite},
                   {0x0, AccessKind::kRead}};
  const unsigned char golden[] = {
      0x53, 0x54, 0x43, 0x54, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x34, 0x12, 0x00, 0x00, 0x02, 0xEF, 0xBE,
      0xAD, 0xDE, 0x01, 0x00, 0x00, 0x00, 0x00, 0x0A, 0x67, 0xDC, 0xA0};
  std::stringstream ss;
  write_trace(ss, t);
  EXPECT_EQ(ss.str(), std::string(reinterpret_cast<const char*>(golden),
                                  sizeof golden));
  std::stringstream in(ss.str());
  EXPECT_EQ(read_trace(in), t);
  std::stringstream packed_in(ss.str());
  const PackedSplitTrace packed = read_packed_trace(packed_in);
  EXPECT_EQ(packed.ifetch, std::vector<std::uint32_t>{0x1234u >> 4});
  EXPECT_EQ(packed.data, (std::vector<std::uint32_t>{
                             (0xDEADBEEFu >> 4) | 0x8000'0000u, 0u}));
}

// --- unseekable streams ----------------------------------------------------------

// A read-only streambuf that cannot seek, like a pipe: tellg() reports
// -1, so the readers cannot check the declared record count up front.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

// A header declaring 2^32 records (21 GB of payload) with 10 records
// behind it must fail with a typed error at the first missing slice —
// never by allocating or zero-filling anything sized by the claim.
TEST(TraceIo, UnseekableStreamWithInflatedCountFailsWithoutOverAllocating) {
  std::stringstream ss;
  write_trace(ss, random_trace(10, 10));
  std::string bytes = ss.str();
  const std::uint64_t claimed = std::uint64_t{1} << 32;
  for (int i = 0; i < 8; ++i) {
    bytes[8 + i] = static_cast<char>(claimed >> (8 * i));
  }
  {
    UnseekableBuf buf(bytes);
    std::istream is(&buf);
    ASSERT_EQ(is.tellg(), std::istream::pos_type(-1));
    try {
      read_trace(is);
      FAIL() << "inflated record count was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
    }
  }
  {
    UnseekableBuf buf(bytes);
    std::istream is(&buf);
    EXPECT_THROW(read_packed_trace(is), Error);
  }
}

// An honest unseekable stream larger than the unvalidated reserve cap
// still reads completely: the record vectors grow past the cap.
TEST(TraceIo, UnseekableStreamReadsPastTheReserveCap) {
  const Trace t = random_trace(11, 1'200'000);
  std::stringstream ss;
  write_trace(ss, t);
  {
    UnseekableBuf buf(ss.str());
    std::istream is(&buf);
    EXPECT_EQ(read_trace(is), t);
  }
  UnseekableBuf buf(ss.str());
  std::istream is(&buf);
  const PackedSplitTrace unsized = read_packed_trace(is);
  std::stringstream seekable(ss.str());
  const PackedSplitTrace sized = read_packed_trace(seekable);
  EXPECT_EQ(unsized.ifetch, sized.ifetch);
  EXPECT_EQ(unsized.data, sized.data);
}

}  // namespace
}  // namespace stcache
