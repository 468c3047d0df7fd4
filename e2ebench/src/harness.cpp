#include "harness.hpp"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "trace/trace.hpp"
#include "util/error.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {

namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_metric_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return is_alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, std::span<const Metric> metrics) {
  std::set<std::string> seen;
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name))
      throw std::invalid_argument("bad metric name '" + m.name + "'");
    if (!valid_metric_unit(m.unit))
      throw std::invalid_argument("bad unit '" + m.unit + "' for " + m.name);
    if (!seen.insert(m.name).second)
      throw std::invalid_argument("metric " + m.name + " reported twice");
    if (!std::isfinite(m.value))
      throw std::invalid_argument("metric " + m.name + " is not finite");
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::optional<double> reported_percentile(std::vector<double> samples,
                                          double p) {
  if (!(p > 0.0 && p < 100.0))
    throw std::invalid_argument("percentile must lie in (0, 100)");
  const std::size_t n = samples.size();
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0 || n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of nothing");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

unsigned count_runnable_threads(long skip_tid) {
  const std::string skip = std::to_string(skip_tid);
  unsigned n = 0;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    if (task.path().filename() == skip) continue;
    std::ifstream f(task.path() / "stat");
    std::string line;
    std::getline(f, line);
    // "tid (comm) S ...": the state follows the last ')', as comm may
    // itself hold parentheses.
    const std::size_t close = line.rfind(')');
    if (close != std::string::npos && close + 2 < line.size() &&
        line[close + 2] == 'R') {
      ++n;
    }
  }
  return n;
}

void RunnableSampler::start() {
  stop();
  stopping_ = false;
  thread_ = std::thread([this] {
    const long self = static_cast<long>(::syscall(SYS_gettid));
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                         [this] { return stopping_; })) {
      const unsigned n = count_runnable_threads(self);
      if (histogram_.size() <= n) histogram_.resize(n + 1);
      ++histogram_[n];
    }
  });
}

void RunnableSampler::stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::uint64_t RunnableSampler::samples() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : histogram_) n += c;
  return n;
}

unsigned RunnableSampler::max() const {
  for (std::size_t k = histogram_.size(); k > 0; --k)
    if (histogram_[k - 1] > 0) return static_cast<unsigned>(k - 1);
  return 0;
}

double RunnableSampler::share_above(unsigned n) const {
  std::uint64_t above = 0;
  for (std::size_t k = n + 1; k < histogram_.size(); ++k) above += histogram_[k];
  const std::uint64_t total = samples();
  return total ? static_cast<double>(above) / static_cast<double>(total) : 0.0;
}

HostFingerprint host_fingerprint() {
  HostFingerprint host;
  host.cpus = std::max(1u, std::thread::hardware_concurrency());
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0 && host.cpu_model.empty()) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.avx2 = __builtin_cpu_supports("avx2");
  host.compiler = __VERSION__;
#ifdef NDEBUG
  host.ndebug = true;
#endif
  host.build_type = E2E_BUILD_TYPE;
  return host;
}

std::string to_string(const HostFingerprint& host) {
  std::ostringstream os;
  os << "cpus=" << host.cpus << " model=\"" << host.cpu_model
     << "\" avx2=" << (host.avx2 ? "yes" : "no") << " compiler=\""
     << host.compiler << "\" ndebug=" << (host.ndebug ? "yes" : "no")
     << " build=" << host.build_type;
  return os.str();
}

bool counters_balance(const ServerCounters& c, std::uint64_t hellos) {
  return c.served + c.shed == hellos && c.poisoned <= c.served &&
         c.timed_out <= c.poisoned;
}

void save_packed_stct(const std::string& path,
                      std::span<const std::uint32_t> ifetch,
                      std::span<const std::uint32_t> data) {
  using stcache::AccessKind;
  stcache::Trace trace;
  trace.reserve(ifetch.size() + data.size());
  for (const std::uint32_t w : ifetch)
    trace.push_back({(w & 0x7FFFFFFFu) << 4, AccessKind::kIFetch});
  for (const std::uint32_t w : data)
    trace.push_back({(w & 0x7FFFFFFFu) << 4,
                     (w >> 31) ? AccessKind::kWrite : AccessKind::kRead});
  stcache::save_trace(path, trace);
}

stcache::PackedSplitTrace read_back_stct(const std::string& path,
                                         std::span<const std::uint32_t> ifetch,
                                         std::span<const std::uint32_t> data) {
  stcache::PackedSplitTrace back = stcache::load_packed_trace(path);
  if (!std::ranges::equal(back.ifetch, ifetch) ||
      !std::ranges::equal(back.data, data)) {
    stcache::fail(path + ": does not read back bit-identical");
  }
  return back;
}

}  // namespace e2e
