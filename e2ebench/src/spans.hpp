// In-memory span recording for the traced benchmark run.
//
// A span is one call into a layer, timed by the benchmark around the
// public function it calls: name, start, end, the enclosing span on the
// same thread, the request it served and the timed pass it belongs to.
// Each recording thread owns one SpanLog (no locking on the record path);
// a null SpanLog* turns every ScopedSpan into a no-op, which is how the
// untraced runs skip recording.
//
// A span's self time is its duration minus the time its direct children
// cover. Children run on the parent's thread and nest inside it, so they
// never overlap each other.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <span>
#include <vector>

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::int64_t kNoParent = -1;

struct SpanRecord {
  const char* name = "";  // a string literal
  std::uint64_t request = 0;
  std::uint32_t pass = 0;
  std::int64_t parent = kNoParent;  // index in the same log
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

class SpanLog {
 public:
  explicit SpanLog(std::uint32_t thread) : thread_(thread) {}

  // Spans opened from now on belong to this pass and request.
  void set_context(std::uint32_t pass, std::uint64_t request) {
    pass_ = pass;
    request_ = request;
  }
  std::size_t open(const char* name);
  void close(std::size_t index) noexcept;

  std::uint32_t thread() const { return thread_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::uint32_t thread_;
  std::uint32_t pass_ = 0;
  std::uint64_t request_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log ? log->open(name) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

// One SpanLog per recording thread, created up front so threads never
// race on the container.
class Tracer {
 public:
  explicit Tracer(std::size_t threads);
  SpanLog& log(std::size_t thread) { return logs_.at(thread); }
  const std::deque<SpanLog>& logs() const { return logs_; }

  // Tab-separated, one span per line:
  // thread pass request index parent name start_ns end_ns self_ns
  void write(std::ostream& os) const;

 private:
  std::deque<SpanLog> logs_;
};

// Self time (seconds) of every span in `spans`, index-aligned.
std::vector<double> self_seconds(std::span<const SpanRecord> spans);

// How much of the requests' wall time the layer calls on their blocking
// path account for: over every span named "request", the time its direct
// children cover against its whole duration. The rest is the benchmark's
// own glue between layer calls, which no per-layer metric explains.
inline constexpr double kMinBlockingPathShare = 0.9;

struct RequestCoverage {
  double request_s = 0.0;  // summed request durations
  double covered_s = 0.0;  // summed time their direct children cover

  void add(std::span<const SpanRecord> spans);
  double share() const { return request_s > 0.0 ? covered_s / request_s : 0.0; }
  // False when there were no request spans at all.
  bool ok() const { return request_s > 0.0 && share() >= kMinBlockingPathShare; }
};

}  // namespace e2e
