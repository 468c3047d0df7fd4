// Client side of the tuning service: a session wrapper over the wire
// protocol (serve/wire.hpp) used by the stcache_tunec CLI, the loopback
// integration tests, and the serving benches. One TuneClient is one
// session: HELLO at construction, send() any number of packed slices
// (re-chunked to the configured frame size), finish() to FIN and collect
// the server's verdict.
//
// Every failure surfaces as a TuneError carrying a machine-readable kind,
// so callers can tell "the daemon is down" (kConnect) from "the daemon
// shed me, retry later" (kOverload, with the server's retry-after hint)
// from "my stream was rejected" (kRejected — retrying the same bytes can
// only fail again). Sessions are idempotent — a verdict is a pure function
// of the packed stream — so every kind except kRejected is safe to retry
// from scratch; tune_remote_retry() does exactly that with seeded
// exponential backoff (docs/serving.md §7 has the failure-mode matrix).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/wire.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stcache::serve {

// Why a tuning session failed, from the client's point of view.
enum class TuneErrorKind : std::uint8_t {
  kConnect,     // could not connect: daemon down or socket path wrong
  kOverload,    // server shed the session (capacity, pool pressure, drain)
  kTimeout,     // a deadline expired — ours (io/verdict) or the server's
  kDisconnect,  // transport died mid-session (EOF, EPIPE, garbled response)
  kMismatch,    // verdict inconsistent with the stream we sent (e.g. the
                // wire duplicated/dropped a chunk without tripping a CRC)
  kRejected,    // typed server rejection (protocol/crc/empty/internal):
                // the stream itself is bad — NOT retryable
};
const char* to_string(TuneErrorKind kind);

class TuneError : public Error {
 public:
  TuneError(TuneErrorKind kind, const std::string& what,
            std::uint16_t retry_after_ms = 0)
      : Error(what), kind_(kind), retry_after_ms_(retry_after_ms) {}

  TuneErrorKind kind() const { return kind_; }
  // The server's reconnect hint (overload/timeout sheds); 0 = none.
  std::uint16_t retry_after_ms() const { return retry_after_ms_; }
  // Everything except an explicit rejection is worth replaying: sessions
  // are idempotent, so a retry can never double-count.
  bool retryable() const { return kind_ != TuneErrorKind::kRejected; }

 private:
  TuneErrorKind kind_;
  std::uint16_t retry_after_ms_;
};

struct ClientOptions {
  // Matches ServerOptions::chunk_words: 64 KB of packed words per CHUNK.
  std::size_t chunk_words = std::size_t{1} << 14;
  // Deadline for each frame write and for the HELLO; 0 = block forever.
  std::uint32_t io_timeout_ms = 10'000;
  // Deadline for the FIN -> VERDICT/ERROR wait (covers the server's whole
  // sweep tail, so it is longer than the per-frame bound). 0 = forever.
  std::uint32_t verdict_timeout_ms = 60'000;
};

class TuneClient {
 public:
  static constexpr std::size_t kDefaultChunkWords = std::size_t{1} << 14;

  // Connects and sends HELLO. Throws TuneError{kConnect} if the daemon is
  // not listening on `socket_path`.
  TuneClient(const std::string& socket_path, bool instruction,
             ClientOptions opts);
  TuneClient(const std::string& socket_path, bool instruction,
             std::size_t chunk_words = kDefaultChunkWords)
      : TuneClient(socket_path, instruction,
                   ClientOptions{.chunk_words = chunk_words}) {}
  ~TuneClient();

  TuneClient(const TuneClient&) = delete;
  TuneClient& operator=(const TuneClient&) = delete;

  // Stream a packed slice in order, split into CHUNK frames of at most
  // chunk_words each. If the server has already poisoned the session its
  // pending ERROR frame is surfaced (typed) instead of the raw EPIPE.
  void send(std::span<const std::uint32_t> packed);

  // Send FIN and block (up to verdict_timeout_ms) for the single
  // VERDICT/ERROR response. Cross-checks verdict.accesses against the
  // words this client actually streamed — a mismatch means the transport
  // mangled the session undetectably and throws kMismatch. Call at most
  // once.
  Verdict finish();

  // Packed words streamed so far (what finish() validates against).
  std::uint64_t words_sent() const { return words_sent_; }

 private:
  [[noreturn]] void throw_wire_error(const WireError& err) const;

  int fd_ = -1;
  ClientOptions opts_;
  std::uint64_t words_sent_ = 0;
  bool finished_ = false;
  std::vector<std::uint8_t> chunk_buf_;  // CHUNK payload, reused by send()
};

// One-shot convenience: open a session, stream `packed`, return the
// verdict. Single attempt — see tune_remote_retry for the resilient form.
Verdict tune_remote(const std::string& socket_path, bool instruction,
                    std::span<const std::uint32_t> packed,
                    std::size_t chunk_words = TuneClient::kDefaultChunkWords);

// --- retry/backoff -----------------------------------------------------------

struct RetryPolicy {
  // Total attempts, including the first. 1 = no retries.
  std::uint32_t max_attempts = 3;
  // Base delay before retry k is roughly backoff_ms << k, capped at
  // backoff_max_ms, jittered to [50%, 100%] of that, and floored by the
  // server's retry-after hint when one was given.
  std::uint32_t backoff_ms = 20;
  std::uint32_t backoff_max_ms = 2'000;
  // Seed for the jitter stream: same seed => same delays, so chaos
  // campaigns replay bit-identically.
  std::uint64_t seed = 0x5eed;
};

// The seeded backoff schedule, reusable by callers that own their retry
// loop (stcache_tunec's streaming path re-captures the workload per
// attempt instead of buffering it, so it cannot use tune_remote_retry).
class RetryBackoff {
 public:
  explicit RetryBackoff(const RetryPolicy& policy)
      : policy_(policy), rng_(policy.seed) {}

  // Delay before the next retry; advances the attempt counter and the
  // jitter stream.
  std::uint32_t next_delay_ms(std::uint16_t retry_after_ms);

 private:
  RetryPolicy policy_;
  Rng rng_;
  std::uint32_t attempt_ = 0;
};

// tune_remote with retries: replays the whole session on any retryable
// TuneError, sleeping the backoff delay between attempts. Rethrows the
// last error once attempts are exhausted, and kRejected immediately.
Verdict tune_remote_retry(const std::string& socket_path, bool instruction,
                          std::span<const std::uint32_t> packed,
                          const RetryPolicy& policy = {},
                          const ClientOptions& opts = {});

}  // namespace stcache::serve
