// Tests of the benchmark's own machinery: result grammar, the percentile
// sample-count rule, the median, tuning-server counter conservation, the
// STCT round trip, span self times and the seeded request order.
#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

// A file or socket path in the working directory, removed on scope exit.
struct LocalPath {
  explicit LocalPath(const std::string& stem)
      : path(stem + "-" + std::to_string(::getpid())) {}
  ~LocalPath() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<std::uint32_t> random_words(std::uint64_t seed, std::size_t n,
                                        bool writes) {
  stcache::Rng rng(seed);
  std::vector<std::uint32_t> words(n);
  for (std::uint32_t& w : words) {
    w = rng.next_u32() & 0x0FFFFFFFu;  // 16 B blocks of a 32-bit space
    if (writes && rng.next_bool(0.3)) w |= 0x80000000u;
  }
  return words;
}

TEST(MetricGrammar, AcceptsTheBenchmarkNames) {
  for (const char* name :
       {"setup_s", "latency_ms_p90", "serve.verdict_wait_ms_p50",
        "trace_io.mb_per_s", "util.crc32_mb_per_s", "9lives", "a-b.c_d"}) {
    EXPECT_TRUE(valid_metric_name(name)) << name;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'x')));
}

TEST(MetricGrammar, RejectsMalformedNames) {
  for (const char* name : {"", "_lead", ".lead", "-lead", "has space",
                           "slash/name", "percent%", "json\"quote"}) {
    EXPECT_FALSE(valid_metric_name(name)) << name;
  }
  EXPECT_FALSE(valid_metric_name(std::string(65, 'x')));
}

TEST(MetricGrammar, Units) {
  for (const char* unit : {"ms", "s", "1/s", "count", "MB/s", "%", "uJ"})
    EXPECT_TRUE(valid_metric_unit(unit)) << unit;
  for (const char* unit : {"", "m s", "per\"s"})
    EXPECT_FALSE(valid_metric_unit(unit)) << unit;
  EXPECT_FALSE(valid_metric_unit(std::string(17, 's')));
}

TEST(ResultJson, PrintsEveryDigitAndTheFourKeys) {
  const std::vector<Metric> metrics = {{"latency_ms", 1.2034567890123, "ms"},
                                       {"setup_s", 0.8127, "s"}};
  EXPECT_EQ(result_json(true, 1000, 0, metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034567890123, "
            "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": "
            "\"s\"}}}");
}

TEST(ResultJson, RejectsBadMetrics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(result_json(true, 1, 0, std::vector<Metric>{{"_x", 1, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, std::vector<Metric>{{"x", 1, "m s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, std::vector<Metric>{{"x", nan, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0,
                           std::vector<Metric>{{"x", 1, "s"}, {"x", 2, "s"}}),
               std::invalid_argument);
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  std::reverse(v.begin(), v.end());  // order must not matter
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(reported_percentile(one_to(99), 90.0));
  EXPECT_EQ(reported_percentile(one_to(100), 90.0), 90.0);
  EXPECT_EQ(reported_percentile(one_to(250), 90.0), 225.0);
  EXPECT_FALSE(reported_percentile(one_to(19), 50.0));
  EXPECT_EQ(reported_percentile(one_to(20), 50.0), 10.0);
  EXPECT_EQ(reported_percentile(one_to(21), 50.0), 11.0);
  EXPECT_FALSE(reported_percentile({}, 50.0));
  EXPECT_THROW(reported_percentile(one_to(10), 100.0), std::invalid_argument);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median(one_to(10)), 5.5);
  EXPECT_DOUBLE_EQ(median(one_to(9)), 5.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(CounterConservation, Law) {
  EXPECT_TRUE(counters_balance({10, 0, 0, 0}, 10));
  EXPECT_TRUE(counters_balance({8, 2, 0, 0}, 10));
  EXPECT_TRUE(counters_balance({10, 0, 3, 1}, 10));   // poisoned are served
  EXPECT_FALSE(counters_balance({9, 0, 0, 0}, 10));   // a HELLO went missing
  EXPECT_FALSE(counters_balance({10, 1, 0, 0}, 10));  // answered twice
  EXPECT_FALSE(counters_balance({10, 0, 1, 2}, 10));  // timeout not poisoned
  EXPECT_FALSE(counters_balance({2, 0, 3, 0}, 5));    // poisoned not served
}

ServerCounters counters_of(const stcache::serve::TuningServer& server) {
  return {server.sessions_served(), server.sessions_shed(),
          server.sessions_poisoned(), server.sessions_timed_out()};
}

TEST(CounterConservation, LiveServerSessionsBalance) {
  const LocalPath sock("e2e_test_live.sock");
  stcache::serve::ServerOptions opts;
  opts.socket_path = sock.path;
  opts.workers = 2;
  stcache::serve::TuningServer server(opts);
  server.start();
  const std::vector<std::uint32_t> words = random_words(5, 20'000, true);
  std::uint64_t hellos = 0;
  std::vector<std::thread> clients;
  std::atomic<int> verdicts{0};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < 4; ++r) {
        const stcache::serve::Verdict v =
            stcache::serve::tune_remote(sock.path, false, words);
        if (v.accesses == words.size()) ++verdicts;
      }
    });
    hellos += 4;
  }
  for (std::thread& t : clients) t.join();
  server.stop();
  EXPECT_EQ(verdicts.load(), 12);
  EXPECT_TRUE(counters_balance(counters_of(server), hellos));
  EXPECT_EQ(server.sessions_served(), hellos);
}

TEST(CounterConservation, ShedSessionsBalance) {
  const LocalPath sock("e2e_test_shed.sock");
  stcache::serve::ServerOptions opts;
  opts.socket_path = sock.path;
  opts.workers = 1;
  opts.max_inflight_sessions = 1;
  stcache::serve::TuningServer server(opts);
  server.start();
  const std::vector<std::uint32_t> words = random_words(6, 5'000, false);
  stcache::serve::TuneClient first(sock.path, true);
  // Let the server register the first session before the second HELLO.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_THROW(
      {
        stcache::serve::TuneClient second(sock.path, true);
        second.send(words);
        second.finish();
      },
      stcache::serve::TuneError);
  first.send(words);
  EXPECT_EQ(first.finish().accesses, words.size());
  server.stop();
  EXPECT_EQ(server.sessions_shed(), 1u);
  EXPECT_TRUE(counters_balance(counters_of(server), 2));
}

TEST(StctRoundTrip, SplitStreamsReadBackBitIdentical) {
  const LocalPath file("e2e_test_rt.stct");
  const std::vector<std::uint32_t> ifetch = random_words(1, 30'001, false);
  const std::vector<std::uint32_t> data = random_words(2, 17'003, true);
  save_packed_stct(file.path, ifetch, data);
  const stcache::PackedSplitTrace back = read_back_stct(file.path, ifetch, data);
  EXPECT_EQ(back.ifetch, ifetch);
  EXPECT_EQ(back.data, data);
  // A phase file holds one stream only.
  save_packed_stct(file.path, {}, data);
  EXPECT_NO_THROW(read_back_stct(file.path, {}, data));
  EXPECT_THROW(read_back_stct(file.path, data, {}), stcache::Error);
  std::vector<std::uint32_t> changed = data;
  changed[100] ^= 0x80000000u;  // a read became a write
  EXPECT_THROW(read_back_stct(file.path, {}, changed), stcache::Error);
}

TEST(StctRoundTrip, CorruptPayloadFailsTheCrc) {
  const LocalPath file("e2e_test_crc.stct");
  const std::vector<std::uint32_t> data = random_words(3, 4'000, true);
  save_packed_stct(file.path, {}, data);
  {
    std::fstream f(file.path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16 + 5 * 1000 + 2);
    const char flip = 0x5A;
    f.write(&flip, 1);
  }
  EXPECT_THROW(read_back_stct(file.path, {}, data), stcache::Error);
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  std::vector<SpanRecord> spans(4);
  spans[0] = {"request", 0, 0, kNoParent, 0, 100};
  spans[1] = {"stream.run", 0, 0, 0, 10, 80};
  spans[2] = {"replay.feed", 0, 0, 1, 20, 50};
  spans[3] = {"core.report", 0, 0, 0, 85, 95};
  const std::vector<double> self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self[0] * 1e9, 20.0);  // 100 - 70 - 10
  EXPECT_DOUBLE_EQ(self[1] * 1e9, 40.0);  // 70 - 30
  EXPECT_DOUBLE_EQ(self[2] * 1e9, 30.0);
  EXPECT_DOUBLE_EQ(self[3] * 1e9, 10.0);
}

TEST(Spans, BlockingPathCoverageFlagsUncoveredGlue) {
  // Two requests of 100 ns: the first is 95% inside layer calls, the
  // second only 40% (60 ns of glue between its two calls).
  std::vector<SpanRecord> spans(5);
  spans[0] = {"request", 0, 0, kNoParent, 0, 100};
  spans[1] = {"stream.run", 0, 0, 0, 0, 95};
  spans[2] = {"request", 1, 0, kNoParent, 200, 300};
  spans[3] = {"trace_io.load", 1, 0, 2, 200, 220};
  spans[4] = {"core.report", 1, 0, 2, 280, 300};
  RequestCoverage first;
  first.add(std::span(spans).first(2));
  EXPECT_NEAR(first.share(), 0.95, 1e-12);
  EXPECT_TRUE(first.ok());
  RequestCoverage both;
  both.add(spans);
  EXPECT_NEAR(both.share(), (95.0 + 40.0) / 200.0, 1e-12);
  EXPECT_FALSE(both.ok());
  // No request spans at all is a failure too, not a vacuous pass.
  RequestCoverage none;
  none.add(std::span(spans).subspan(1, 1));
  EXPECT_FALSE(none.ok());
}

TEST(Spans, ScopedSpansNestAndNullLogIsANoOp) {
  SpanLog log(0);
  log.set_context(3, 7);
  {
    ScopedSpan outer(&log, "request");
    ScopedSpan inner(&log, "serve.send");
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].parent, kNoParent);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].pass, 3u);
  EXPECT_EQ(log.spans()[1].request, 7u);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
  ScopedSpan none(nullptr, "request");
}

TEST(RunnableThreads, CountsASpinningThread) {
  const long self = static_cast<long>(::syscall(SYS_gettid));
  std::atomic<bool> spin{true};
  std::atomic<bool> started{false};
  std::thread spinner([&] {
    started = true;
    while (spin.load(std::memory_order_relaxed)) {
    }
  });
  while (!started) std::this_thread::yield();
  // The spinner is running or waiting for a CPU: state R either way.
  EXPECT_GE(count_runnable_threads(self), 1u);
  RunnableSampler sampler(1);
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.stop();
  spin = false;
  spinner.join();
  EXPECT_GT(sampler.samples(), 0u);
  EXPECT_GE(sampler.max(), 1u);
  EXPECT_DOUBLE_EQ(sampler.share_above(sampler.max()), 0.0);
  EXPECT_GT(sampler.share_above(0), 0.0);
}

TEST(RequestOrder, SeededPermutation) {
  const std::vector<std::size_t> a = shuffled_order(38, 11);
  EXPECT_EQ(a, shuffled_order(38, 11));
  EXPECT_NE(a, shuffled_order(38, 12));
  std::vector<std::size_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

}  // namespace
}  // namespace e2e
