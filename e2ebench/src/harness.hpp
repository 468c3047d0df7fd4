// Measurement helpers shared by the e2ebench binary and its tests: the
// result-line grammar, the percentile sample-count rule, process CPU and
// memory probes, the host fingerprint, the tuning-server counter law, and
// the packed-stream -> STCT file bridge the workloads write their inputs
// with.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "trace/trace_io.hpp"

namespace e2e {

// --- result grammar ----------------------------------------------------------

// A metric name starts with a letter or digit and holds at most 64
// letters, digits, '_', '.' and '-'.
bool valid_metric_name(std::string_view name);
// A unit holds 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool valid_metric_unit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The one-line JSON result: {"correct", "attempted", "failed", "metrics"}.
// Values print with every digit of the double (shortest round-trip form).
// Throws std::invalid_argument on a bad name or unit, a repeated name, or
// a value that is not finite.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, std::span<const Metric> metrics);

// --- order statistics ----------------------------------------------------------

// Samples that must lie strictly beyond a percentile for it to be reported.
inline constexpr std::size_t kMinTailSamples = 10;

// Nearest-rank percentile (p in (0, 100)): the sample of rank ceil(p/100 n)
// in sorted order. Empty unless at least kMinTailSamples samples rank
// above it, so a p90 needs 100 samples and a p50 needs 20.
std::optional<double> reported_percentile(std::vector<double> samples,
                                          double p);

// Median: the middle sample, or the mean of the two middle samples for an
// even count. Throws on an empty input.
double median(std::vector<double> values);

// --- process probes ------------------------------------------------------------

// User + system CPU seconds of the whole process (every thread).
double process_cpu_seconds();
// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS by writing
// "5" to /proc/self/clear_refs. Returns false where that is unsupported.
bool reset_peak_rss();
// VmHWM from /proc/self/status, in MiB; 0 when unreadable.
double peak_rss_mb();

// --- runnable threads ---------------------------------------------------------

// Threads of this process in state R (running or waiting for a CPU) in
// /proc/self/task/*/stat, not counting thread `skip_tid`.
unsigned count_runnable_threads(long skip_tid);

// Samples count_runnable_threads every `period_ms` on a thread of its own
// (which it leaves out of the count) between start() and stop(). The
// histogram accumulates over every start/stop interval.
class RunnableSampler {
 public:
  explicit RunnableSampler(unsigned period_ms = 5) : period_ms_(period_ms) {}
  ~RunnableSampler() { stop(); }
  RunnableSampler(const RunnableSampler&) = delete;
  RunnableSampler& operator=(const RunnableSampler&) = delete;

  void start();
  void stop();

  // histogram()[k]: samples that found k runnable threads.
  const std::vector<std::uint64_t>& histogram() const { return histogram_; }
  std::uint64_t samples() const;
  unsigned max() const;
  // Share of the samples that found more than `n` runnable threads.
  double share_above(unsigned n) const;

 private:
  unsigned period_ms_;
  std::vector<std::uint64_t> histogram_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

// --- host fingerprint ----------------------------------------------------------

struct HostFingerprint {
  unsigned cpus = 0;
  std::string cpu_model;   // /proc/cpuinfo "model name"
  bool avx2 = false;       // running CPU supports AVX2
  std::string compiler;    // __VERSION__
  bool ndebug = false;     // NDEBUG defined in the benchmark build
  std::string build_type;  // CMAKE_BUILD_TYPE of the benchmark build
};
HostFingerprint host_fingerprint();
std::string to_string(const HostFingerprint& host);

// --- tuning-server accounting --------------------------------------------------

// TuningServer's session counters. The server counts a poisoned session's
// ERROR reply as served too, and a timed-out session as poisoned, so the
// four overlap; see counters_balance.
struct ServerCounters {
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t poisoned = 0;
  std::uint64_t timed_out = 0;
};

// Conservation for clients that always send a HELLO: every HELLO is
// answered exactly once, either as a VERDICT/ERROR (served, which
// includes the poisoned sessions) or as a shed refusal, so
// served + shed == hellos; timed-out sessions are a subset of the poisoned
// ones, and poisoned ones of the served ones.
bool counters_balance(const ServerCounters& c, std::uint64_t hellos);

// --- STCT bridge ------------------------------------------------------------

// Write the two split packed streams (pack_stream format: bit 31 = write,
// bits 30..0 = 16 B block) as one STCT file: the instruction fetches, then
// the data reads and writes. Throws stcache::Error on I/O failure.
void save_packed_stct(const std::string& path,
                      std::span<const std::uint32_t> ifetch,
                      std::span<const std::uint32_t> data);

// Decode `path` with load_packed_trace and return the streams after
// checking they are exactly these two. Throws stcache::Error when they are
// not, or when the file does not decode.
stcache::PackedSplitTrace read_back_stct(const std::string& path,
                                         std::span<const std::uint32_t> ifetch,
                                         std::span<const std::uint32_t> data);

}  // namespace e2e
