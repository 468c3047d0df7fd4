#include "serve/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/error.hpp"

namespace stcache::serve {

const char* to_string(TuneErrorKind kind) {
  switch (kind) {
    case TuneErrorKind::kConnect: return "connect";
    case TuneErrorKind::kOverload: return "overload";
    case TuneErrorKind::kTimeout: return "timeout";
    case TuneErrorKind::kDisconnect: return "disconnect";
    case TuneErrorKind::kMismatch: return "mismatch";
    case TuneErrorKind::kRejected: return "rejected";
  }
  return "?";
}

namespace {

TuneErrorKind kind_of(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kOverload: return TuneErrorKind::kOverload;
    case WireErrorCode::kTimeout: return TuneErrorKind::kTimeout;
    default: return TuneErrorKind::kRejected;
  }
}

}  // namespace

void TuneClient::throw_wire_error(const WireError& err) const {
  throw TuneError(kind_of(err.code),
                  std::string("server: ") + to_string(err.code) + ": " +
                      err.message,
                  err.retry_after_ms);
}

TuneClient::TuneClient(const std::string& socket_path, bool instruction,
                       ClientOptions opts)
    : opts_(opts) {
  opts_.chunk_words = std::clamp<std::size_t>(opts_.chunk_words, 1,
                                              kMaxChunkWords);
  try {
    fd_ = unix_connect(socket_path);
  } catch (const std::exception& e) {
    throw TuneError(TuneErrorKind::kConnect, e.what());
  }
  try {
    write_frame(fd_, FrameType::kHello, encode_hello(instruction),
                wire_deadline_after(opts_.io_timeout_ms));
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw TuneError(TuneErrorKind::kDisconnect,
                    "connection died sending HELLO");
  }
}

TuneClient::~TuneClient() {
  if (fd_ >= 0) ::close(fd_);
}

void TuneClient::send(std::span<const std::uint32_t> packed) {
  STC_ASSERT(!finished_, "tune client: send() after finish()");
  while (!packed.empty()) {
    const std::size_t n = std::min(packed.size(), opts_.chunk_words);
    encode_chunk(packed.first(n), chunk_buf_);
    try {
      write_frame(fd_, FrameType::kChunk, chunk_buf_,
                  wire_deadline_after(opts_.io_timeout_ms));
    } catch (const WireTimeout& e) {
      throw TuneError(TuneErrorKind::kTimeout, e.what());
    } catch (const std::exception& e) {
      // The server closed on us mid-stream — if it left an ERROR frame
      // explaining why, prefer that (typed) over the raw transport error.
      try {
        Frame frame;
        if (read_frame(fd_, frame, kMaxFramePayload,
                       wire_deadline_after(opts_.io_timeout_ms)) &&
            frame.type == FrameType::kError) {
          throw_wire_error(decode_error(frame.payload));
        }
      } catch (const TuneError&) {
        throw;
      } catch (...) {
      }
      throw TuneError(TuneErrorKind::kDisconnect, e.what());
    }
    words_sent_ += n;
    packed = packed.subspan(n);
  }
}

Verdict TuneClient::finish() {
  STC_ASSERT(!finished_, "tune client: finish() called twice");
  finished_ = true;
  Frame frame;
  bool got = false;
  try {
    write_frame(fd_, FrameType::kFin, {},
                wire_deadline_after(opts_.io_timeout_ms));
    got = read_frame(fd_, frame, kMaxFramePayload,
                     wire_deadline_after(opts_.verdict_timeout_ms));
  } catch (const WireTimeout& e) {
    throw TuneError(TuneErrorKind::kTimeout, e.what());
  } catch (const std::exception& e) {
    throw TuneError(TuneErrorKind::kDisconnect, e.what());
  }
  if (!got) {
    throw TuneError(TuneErrorKind::kDisconnect,
                    "server closed the connection without a response");
  }
  if (frame.type == FrameType::kError) {
    throw_wire_error(decode_error(frame.payload));
  }
  if (frame.type != FrameType::kVerdict) {
    throw TuneError(TuneErrorKind::kDisconnect,
                    "unexpected response frame type " +
                        std::to_string(static_cast<unsigned>(frame.type)));
  }
  Verdict verdict;
  try {
    verdict = decode_verdict(frame.payload);
  } catch (const std::exception& e) {
    throw TuneError(TuneErrorKind::kDisconnect, e.what());
  }
  // The end-to-end integrity check: CRCs catch corruption, this catches
  // whole frames duplicated or swallowed between CRC and verdict.
  if (verdict.accesses != words_sent_) {
    throw TuneError(TuneErrorKind::kMismatch,
                    "verdict folded " + std::to_string(verdict.accesses) +
                        " words but this session streamed " +
                        std::to_string(words_sent_));
  }
  return verdict;
}

Verdict tune_remote(const std::string& socket_path, bool instruction,
                    std::span<const std::uint32_t> packed,
                    std::size_t chunk_words) {
  TuneClient client(socket_path, instruction, chunk_words);
  client.send(packed);
  return client.finish();
}

std::uint32_t RetryBackoff::next_delay_ms(std::uint16_t retry_after_ms) {
  const std::uint32_t shift = std::min(attempt_, 20u);
  ++attempt_;
  std::uint64_t base = std::uint64_t{policy_.backoff_ms} << shift;
  base = std::min<std::uint64_t>(base, policy_.backoff_max_ms);
  // Jitter to [50%, 100%] so a herd of clients kicked off one daemon
  // restart does not reconnect in lockstep.
  std::uint64_t delay = base - rng_.next_below(base / 2 + 1);
  return static_cast<std::uint32_t>(
      std::max<std::uint64_t>(delay, retry_after_ms));
}

Verdict tune_remote_retry(const std::string& socket_path, bool instruction,
                          std::span<const std::uint32_t> packed,
                          const RetryPolicy& policy,
                          const ClientOptions& opts) {
  RetryBackoff backoff(policy);
  const std::uint32_t attempts = std::max(1u, policy.max_attempts);
  for (std::uint32_t attempt = 0;; ++attempt) {
    try {
      TuneClient client(socket_path, instruction, opts);
      client.send(packed);
      return client.finish();
    } catch (const TuneError& e) {
      if (!e.retryable() || attempt + 1 >= attempts) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          backoff.next_delay_ms(e.retry_after_ms())));
    }
  }
}

}  // namespace stcache::serve
