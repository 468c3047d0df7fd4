// Binary trace file format ("STCT"): capture once, tune anywhere.
//
// Layout (little-endian):
//   offset 0   char[4]   magic "STCT"
//   offset 4   u32       format version (currently 2)
//   offset 8   u64       record count
//   offset 16  records   5 bytes each: u8 kind (AccessKind), u32 address
//   footer     u32       CRC-32 (IEEE) of the record payload (v2 only)
//
// The format is deliberately dense (5 B/record): a 2 M-access kernel trace
// is ~10 MB. Readers validate the magic, version, and record count against
// the file size, reject malformed kinds, and (v2) verify the footer CRC
// over the raw record bytes, so a truncated, corrupted, or bit-flipped
// file fails loudly instead of producing silently wrong experiments.
// Version-1 files (no footer) are still accepted unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace stcache {

inline constexpr char kTraceMagic[4] = {'S', 'T', 'C', 'T'};
inline constexpr std::uint32_t kTraceFormatVersion = 2;
// Oldest version read_trace still accepts (v1 lacks the CRC footer).
inline constexpr std::uint32_t kTraceMinFormatVersion = 1;

// Stream-level primitives. The out-parameter overloads clear `out` and
// reuse its capacity, so a loop that reads many traces (per-workload bank
// sweeps, the fault-injection campaigns) does not reallocate the record
// vector each iteration; the by-value forms delegate to them.
void write_trace(std::ostream& os, const Trace& trace);
Trace read_trace(std::istream& is);
void read_trace(std::istream& is, Trace& out);

// File-level convenience; throws stcache::Error on any I/O or format
// problem, with the path in the message.
void save_trace(const std::string& path, const Trace& trace);
Trace load_trace(const std::string& path);
void load_trace(const std::string& path, Trace& out);

// Replay-only bulk reader: decode an STCT file's records straight into the
// two split packed streams (pack_stream format: bit 31 = write, bits 30..0
// = 16 B block number), skipping the TraceRecord AoS intermediate that
// replay paths immediately split and pack anyway. Like read_trace it
// streams the records through one 8192-record slice buffer (never a copy
// of the whole payload), with the same validation including the v2 CRC-32
// footer.
// Bit-identical to pack_stream over split_trace(load_trace(path)).
struct PackedSplitTrace {
  std::vector<std::uint32_t> ifetch;  // instruction fetches
  std::vector<std::uint32_t> data;    // reads and writes
};
PackedSplitTrace read_packed_trace(std::istream& is);
PackedSplitTrace load_packed_trace(const std::string& path);

// Out-of-core STCT reader: replays traces far larger than memory without
// ever materializing a Trace or a whole packed stream. The file is mapped
// (mmap + madvise(MADV_SEQUENTIAL)) and decoded in fixed-size record
// chunks into two reusable split packed buffers; fully-decoded pages are
// released behind the cursor (MADV_DONTNEED), so peak RSS is bounded by
// the chunk size — a few MB — independent of the trace size. A
// billion-record (~5 GB) .stct therefore streams straight into a
// BankAccumulator.
//
// Validation matches the buffered readers: magic/version/record-count are
// checked against the file size up front (truncation fails before any
// decode), record kinds are checked per record, and the v2 CRC-32 footer
// is accumulated chunk by chunk as each chunk is first touched and
// verified when the pass completes — a corrupt payload fails the pass
// even though no buffer ever held the whole file.
//
// When mmap is unavailable — the syscall fails, or STCACHE_NO_MMAP is set
// to anything but "0" — the reader falls back to chunked pread() into a
// private buffer with identical semantics (mapped() reports which path is
// live). Decoded chunks are bit-identical to load_packed_trace() slices
// in either mode; tests/mmap_trace_test.cpp enforces all of the above.
class MappedPackedTrace {
 public:
  // Spans live in buffers reused for the next chunk: consume (or copy)
  // within the callback. first_record is the chunk's absolute index.
  struct Chunk {
    std::span<const std::uint32_t> ifetch;
    std::span<const std::uint32_t> data;
    std::uint64_t first_record = 0;
  };

  // Opens, maps and validates; throws stcache::Error (path in message) on
  // any I/O or format problem. chunk_records is exposed for boundary
  // tests; the default keeps the working set at ~5 MB raw + ~8 MB decoded.
  explicit MappedPackedTrace(const std::string& path,
                             std::size_t chunk_records = std::size_t{1} << 20);
  ~MappedPackedTrace();
  MappedPackedTrace(const MappedPackedTrace&) = delete;
  MappedPackedTrace& operator=(const MappedPackedTrace&) = delete;

  std::uint64_t record_count() const { return count_; }
  // True when the record section is mmap'd; false on the pread fallback.
  bool mapped() const { return map_ != nullptr; }

  // One in-order pass over every record: decodes chunk after chunk,
  // invoking fn for each (zero times for an empty trace), verifying the
  // CRC footer at the end. Throws on corruption; callable again for a
  // fresh pass (pages released by an earlier pass fault back in).
  void for_each_chunk(const std::function<void(const Chunk&)>& fn);

 private:
  std::string path_;
  int fd_ = -1;
  unsigned char* map_ = nullptr;  // whole file when mapped() is true
  std::uint64_t file_bytes_ = 0;
  std::uint64_t count_ = 0;
  std::uint32_t version_ = 0;
  std::size_t chunk_records_;
  std::vector<unsigned char> read_buf_;   // pread fallback only
  std::vector<std::uint32_t> ifetch_buf_;  // reused chunk decode targets
  std::vector<std::uint32_t> data_buf_;
};

}  // namespace stcache
