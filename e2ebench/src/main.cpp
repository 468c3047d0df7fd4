// e2ebench — one closed-loop workload of the tuning pipeline, end to end.
//
//   e2ebench --workload corpus_stream|daemon_sessions|phase_files
//            [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//
// A run sets the workload up kSetups times (the median is setup_s), runs
// one untimed warm-up pass, then timed passes until
// --seconds have elapsed and the passes hold 100 latency samples. Every
// request's verdict is checked against a reference computed during set-up
// by a different route. With --trace 0 the run prints the end-to-end
// metrics, taken over every timed pass. With --trace 1 it alternates
// untraced and traced passes, records spans around every layer call in the
// traced ones, writes them to DIR/spans/, samples the process's runnable
// threads during them, and prints the per-layer metrics and the tracing
// overhead. The last stdout line is the JSON result; the exit code is 0
// only when every verdict matched, the server counters balance and (traced)
// the layer calls cover at least 90% of the request wall time. README.md
// defines every metric.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "harness.hpp"
#include "phase/classifier.hpp"
#include "spans.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace e2e {
namespace {

constexpr std::size_t kMinLatencySamples = 100;  // enough for a p90
constexpr unsigned kMinPasses = 3;
constexpr unsigned kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/e2ebench/out";
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload corpus_stream|daemon_sessions|phase_files"
               " [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") opts.workload = value;
      else if (flag == "--seed") opts.seed = std::stoull(value);
      else if (flag == "--seconds") opts.seconds = std::stod(value);
      else if (flag == "--trace") opts.trace = std::stoi(value) != 0;
      else if (flag == "--out-dir") opts.out_dir = value;
      else usage(argv[0]);
    } catch (const std::exception&) {
      usage(argv[0]);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opts.workload) == names.end() ||
      !(opts.seconds > 0.0)) {
    usage(argv[0]);
  }
  return opts;
}

double seconds_since(std::int64_t t0_ns) {
  return 1e-9 * static_cast<double>(now_ns() - t0_ns);
}

struct PassRecord {
  std::uint32_t pass = 0;
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;  // VmHWM, the mark reset just before the pass
  PassStats stats;
};

// The passes with the given tracing state, in run order.
std::vector<const PassRecord*> passes_of(const std::vector<PassRecord>& passes,
                                         bool traced) {
  std::vector<const PassRecord*> out;
  for (const PassRecord& rec : passes)
    if (rec.traced == traced) out.push_back(&rec);
  return out;
}

std::size_t latency_samples(const std::vector<const PassRecord*>& passes) {
  std::size_t n = 0;
  for (const PassRecord* rec : passes) n += rec->stats.latencies_s.size();
  return n;
}

double median_wall(const std::vector<const PassRecord*>& passes) {
  std::vector<double> walls;
  for (const PassRecord* rec : passes) walls.push_back(rec->wall_s);
  return walls.empty() ? 0.0 : median(walls);
}

// Removes the run's scratch files on every exit path.
struct ScratchDir {
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path;
};

// --- per-layer aggregation -----------------------------------------------------

struct SpanAgg {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
};
using PassSpans = std::map<std::string, SpanAgg>;

std::map<std::uint32_t, PassSpans> aggregate_spans(const Tracer& tracer) {
  std::map<std::uint32_t, PassSpans> by_pass;
  for (const SpanLog& log : tracer.logs()) {
    const std::vector<double> self = self_seconds(log.spans());
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const SpanRecord& s = log.spans()[i];
      SpanAgg& agg = by_pass[s.pass][s.name];
      agg.total_s += s.seconds();
      agg.self_s += self[i];
      ++agg.count;
    }
  }
  return by_pass;
}

std::vector<double> span_durations(const Tracer& tracer, const char* name) {
  std::vector<double> out;
  for (const SpanLog& log : tracer.logs())
    for (const SpanRecord& s : log.spans())
      if (std::strcmp(s.name, name) == 0) out.push_back(s.seconds());
  return out;
}

SpanAgg get(const PassSpans& spans, const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? SpanAgg{} : it->second;
}

double counter(const PassStats& stats, const std::string& name) {
  const auto it = stats.counters.find(name);
  return it == stats.counters.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Standalone single-thread rates of three layers, measured on the Table 1
// captures (median of three repetitions each).
struct StandaloneRates {
  double instr_per_s = 0.0;
  double crc32_mb_per_s = 0.0;
  double classifier_words_per_s = 0.0;
};

StandaloneRates standalone_rates() {
  constexpr int kReps = 3;
  StandaloneRates rates;
  std::vector<std::uint32_t> words;
  std::vector<double> capture, crc, classify;
  for (int rep = 0; rep < kReps; ++rep) {
    words.clear();
    std::uint64_t instructions = 0;
    double secs = 0.0;
    for (const stcache::Workload& w : stcache::all_workloads()) {
      const std::int64_t t0 = now_ns();
      stcache::PackedCapture cap = stcache::capture_packed(w);
      secs += seconds_since(t0);
      instructions += cap.run.instructions;
      words.insert(words.end(), cap.ifetch.begin(), cap.ifetch.end());
      words.insert(words.end(), cap.data.begin(), cap.data.end());
    }
    capture.push_back(static_cast<double>(instructions) / secs);
  }
  const double bytes = 4.0 * static_cast<double>(words.size());
  volatile std::uint32_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::int64_t t0 = now_ns();
    sink = sink ^ stcache::crc32(words.data(), words.size() * 4);
    crc.push_back(bytes / 1e6 / seconds_since(t0));
  }
  for (int rep = 0; rep < kReps; ++rep) {
    const std::int64_t t0 = now_ns();
    stcache::PhaseClassifier classifier{stcache::PhaseClassifier::Params{}};
    classifier.feed(words);
    classifier.finish();
    classify.push_back(static_cast<double>(words.size()) / seconds_since(t0));
    sink = sink ^ static_cast<std::uint32_t>(classifier.boundaries());
  }
  rates.instr_per_s = median(capture);
  rates.crc32_mb_per_s = median(crc);
  rates.classifier_words_per_s = median(classify);
  return rates;
}

// --- reporting -----------------------------------------------------------------

void print_metric(const Metric& m, const std::string& note = "") {
  std::cout << "  " << std::left << std::setw(30) << m.name << std::right
            << std::setw(16) << std::setprecision(6) << m.value << " "
            << std::left << std::setw(7) << m.unit << std::right << note
            << "\n";
}

std::string samples_note(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return "(" + std::to_string(n) + " samples, " + std::to_string(n - rank) +
         " beyond)";
}

int run(const Options& opts) {
  stcache::set_metrics_enabled(false);
  const HostFingerprint host = host_fingerprint();
  std::cout << "host: " << to_string(host) << "\n";
  std::cout << "workload " << opts.workload << " seed " << opts.seed
            << (opts.trace ? " (traced)" : "") << "\n";

  const ScratchDir scratch(opts.out_dir + "/work-" + std::to_string(::getpid()));

  // Set-up, several times: setup_s is the median.
  std::vector<double> setup_times;
  std::unique_ptr<BenchWorkload> wl;
  for (unsigned k = 0; k < kSetups; ++k) {
    wl.reset();
    const std::int64_t t0 = now_ns();
    wl = make_workload(opts.workload, opts.seed, scratch.path);
    setup_times.push_back(seconds_since(t0));
  }
  // Hand the heap that set-up freed back to the kernel, so the per-pass
  // peak marks start from what the workload holds, not from allocator
  // slack.
  malloc_trim(0);
  bool rss_reset = true;

  // Untimed warm-up pass; its requests are checked and counted too.
  PassStats warmup;
  wl->run_pass(0, nullptr, warmup);

  Tracer tracer(wl->recording_threads());
  RunnableSampler runnable;
  std::vector<PassRecord> passes;
  const std::int64_t loop_t0 = now_ns();
  // Waiting for samples may stretch the loop, but never past this.
  const double hard_stop_s = std::max(opts.seconds, 120.0);
  for (std::uint32_t pass = 1;; ++pass) {
    PassRecord rec;
    rec.pass = pass;
    rec.traced = opts.trace && pass % 2 == 0;
    rss_reset = reset_peak_rss() && rss_reset;
    const double cpu0 = process_cpu_seconds();
    if (rec.traced) runnable.start();
    const std::int64_t t0 = now_ns();
    wl->run_pass(pass, rec.traced ? &tracer : nullptr, rec.stats);
    rec.wall_s = seconds_since(t0);
    runnable.stop();
    rec.cpu_s = process_cpu_seconds() - cpu0;
    rec.peak_rss_mb = peak_rss_mb();
    passes.push_back(std::move(rec));
    const double elapsed = seconds_since(loop_t0);
    // The traced run reports no end-to-end latency, so it needs passes,
    // not samples.
    const bool enough =
        (opts.trace ||
         latency_samples(passes_of(passes, false)) >= kMinLatencySamples) &&
        passes.size() >= (opts.trace ? 2 : 1) * kMinPasses;
    if ((elapsed >= opts.seconds && enough) || elapsed >= hard_stop_s) break;
  }

  PassStats all = std::move(warmup);
  for (const PassRecord& rec : passes) all.merge(rec.stats);
  bool correct = all.failed == 0;
  for (const std::string& e : all.errors) std::cout << "FAILED: " << e << "\n";

  const std::optional<ServerCounters> server = wl->server_counters();
  if (server) {
    const bool balanced = counters_balance(*server, wl->hellos());
    std::cout << "server counters: served " << server->served << ", shed "
              << server->shed << ", poisoned " << server->poisoned
              << ", timed out " << server->timed_out << "; HELLOs "
              << wl->hellos() << (balanced ? " (balanced)" : " (UNBALANCED)")
              << "\n";
    correct = correct && balanced;
  }

  std::vector<Metric> metrics;
  const std::vector<const PassRecord*> untraced = passes_of(passes, false);
  std::cout << passes.size() << " timed passes of " << wl->inputs()
            << " inputs in " << std::setprecision(4)
            << seconds_since(loop_t0) << " s; " << all.attempted
            << " requests attempted (warm-up included), " << all.failed
            << " failed (failed_share " << ratio(all.failed, all.attempted)
            << ")\n";

  if (!opts.trace) {
    std::vector<double> latencies, peaks;
    double wall_s = 0.0, cpu_s = 0.0, words = 0.0;
    for (const PassRecord* rec : untraced) {
      peaks.push_back(rec->peak_rss_mb);
      wall_s += rec->wall_s;
      cpu_s += rec->cpu_s;
      words += static_cast<double>(rec->stats.words);
      latencies.insert(latencies.end(), rec->stats.latencies_s.begin(),
                       rec->stats.latencies_s.end());
    }
    const std::optional<double> p50 = reported_percentile(latencies, 50.0);
    const std::optional<double> p90 = reported_percentile(latencies, 90.0);
    const VerdictTotals& v = wl->verdicts();
    metrics.push_back({"setup_s", median(setup_times), "s"});
    metrics.push_back({"words_per_s", ratio(words, wall_s), "1/s"});
    if (p50) metrics.push_back({"latency_ms_p50", 1e3 * *p50, "ms"});
    if (p90) metrics.push_back({"latency_ms_p90", 1e3 * *p90, "ms"});
    metrics.push_back({"cpu_ns_per_word", 1e9 * ratio(cpu_s, words), "ns"});
    // The loop's peak: the largest of the per-pass peaks. One pass holds
    // the largest inputs at once only by chance (daemon_sessions: 37 to
    // 55 MB by pass); over all passes the largest overlap shows.
    const double peak_rss = peaks.empty() ? 0.0 : *std::max_element(peaks.begin(), peaks.end());
    metrics.push_back({"peak_rss_mb", peak_rss, "MB"});
    metrics.push_back({"tuned_energy_uj", 1e6 * v.heuristic_energy_j, "uJ"});
    metrics.push_back({"gap_vs_exhaustive_pct",
                       100.0 * (v.heuristic_energy_j / v.exhaustive_energy_j - 1.0),
                       "%"});
    std::cout << "end-to-end metrics (over all " << untraced.size()
              << " timed passes; setup median of " << kSetups << "):\n";
    for (const Metric& m : metrics) {
      std::string note;
      if (m.name == "latency_ms_p50") note = samples_note(latencies.size(), 50.0);
      if (m.name == "latency_ms_p90") note = samples_note(latencies.size(), 90.0);
      if (m.name == "peak_rss_mb") {
        std::ostringstream os;
        os << std::setprecision(4) << "(max of per-pass peaks; median pass "
           << median(peaks) << " MB)";
        note = rss_reset ? os.str() : "(peak mark not reset)";
      }
      print_metric(m, note);
    }
    print_metric({"failed_share", ratio(all.failed, all.attempted), "ratio"},
                 "(text only: 0 on a correct run)");
    if (!p50 || !p90) {
      std::cout << "FAILED: too few latency samples for p50/p90\n";
      correct = false;
    }
  } else {
    const std::map<std::uint32_t, PassSpans> by_pass = aggregate_spans(tracer);
    std::map<std::uint32_t, const PassRecord*> rec_of;
    for (const PassRecord& rec : passes) rec_of[rec.pass] = &rec;
    // Median over traced passes of a per-pass quantity.
    const auto per_pass = [&](const auto& fn) {
      std::vector<double> v;
      for (const auto& [pass, spans] : by_pass) v.push_back(fn(spans, *rec_of.at(pass)));
      return v.empty() ? 0.0 : median(v);
    };
    const auto total = [&](const char* name) {
      return per_pass([&](const PassSpans& s, const PassRecord&) { return get(s, name).total_s; });
    };
    const auto self = [&](const char* name) {
      return per_pass([&](const PassSpans& s, const PassRecord&) { return get(s, name).self_s; });
    };
    const auto count = [&](const char* name) {
      return per_pass([&](const PassSpans& s, const PassRecord&) {
        return static_cast<double>(get(s, name).count);
      });
    };
    const auto pass_counter = [&](const char* name) {
      return per_pass([&](const PassSpans&, const PassRecord& r) { return counter(r.stats, name); });
    };
    const auto pct_ms = [&](const char* name, double p) {
      return 1e3 * reported_percentile(span_durations(tracer, name), p).value_or(0.0);
    };
    const StandaloneRates standalone = standalone_rates();
    const unsigned cpus = host.cpus;
    const ServerCounters sc = server.value_or(ServerCounters{});
    const double configs = static_cast<double>(stcache::all_configs().size());

    metrics = {
        {"sim.instructions", pass_counter("sim.instructions"), "count"},
        {"sim.instr_per_s", standalone.instr_per_s, "1/s"},
        {"stream.consumer_busy_s", total("stream.consume"), "s"},
        {"stream.starved_s", self("stream.run"), "s"},
        {"stream.chunks", count("stream.consume"), "count"},
        {"replay.feed_s", total("replay.feed"), "s"},
        {"replay.stats_s", total("replay.stats"), "s"},
        {"replay.config_words_per_s",
         per_pass([&](const PassSpans& s, const PassRecord& r) {
           return ratio(configs * counter(r.stats, "replay.words"),
                        get(s, "replay.feed").total_s);
         }),
         "1/s"},
        {"replay.shard_jobs", static_cast<double>(wl->shard_jobs()), "count"},
        {"trace_io.load_s", total("trace_io.load"), "s"},
        {"trace_io.decode_s", self("trace_io.decode"), "s"},
        {"trace_io.mb_per_s",
         per_pass([&](const PassSpans& s, const PassRecord& r) {
           return ratio(counter(r.stats, "trace_io.bytes") / 1e6,
                        get(s, "trace_io.load").total_s +
                            get(s, "trace_io.decode").self_s);
         }),
         "MB/s"},
        {"serve.connect_ms_p50", pct_ms("serve.connect", 50.0), "ms"},
        {"serve.send_s", total("serve.send"), "s"},
        {"serve.verdict_wait_ms_p50", pct_ms("serve.verdict_wait", 50.0), "ms"},
        {"serve.verdict_wait_ms_p90", pct_ms("serve.verdict_wait", 90.0), "ms"},
        {"util.crc32_mb_per_s", standalone.crc32_mb_per_s, "MB/s"},
        {"serve.sessions_served", static_cast<double>(sc.served), "count"},
        {"serve.sessions_shed", static_cast<double>(sc.shed), "count"},
        {"serve.sessions_poisoned", static_cast<double>(sc.poisoned), "count"},
        {"serve.sessions_timed_out", static_cast<double>(sc.timed_out), "count"},
        {"phase.feed_s", total("phase.feed"), "s"},
        {"phase.finish_s", total("phase.finish"), "s"},
        {"phase.sweeps", pass_counter("phase.sweeps"), "count"},
        {"phase.reuses", pass_counter("phase.reuses"), "count"},
        {"phase.boundaries", pass_counter("phase.boundaries"), "count"},
        {"phase.swept_share",
         per_pass([&](const PassSpans&, const PassRecord& r) {
           return ratio(counter(r.stats, "phase.swept_words"),
                        counter(r.stats, "replay.words"));
         }),
         "ratio"},
        {"phase.classifier_words_per_s", standalone.classifier_words_per_s, "1/s"},
        {"core.report_s", total("core.report"), "s"},
        {"core.configs_examined",
         static_cast<double>(wl->verdicts().configs_examined), "count"},
    };

    // Self-time table: every span name, per pass, against the request wall.
    std::map<std::string, std::vector<double>> self_per_pass;
    std::vector<double> wall_per_pass;
    for (const auto& [pass, spans] : by_pass) {
      wall_per_pass.push_back(get(spans, "request").total_s);
      for (const auto& [name, agg] : spans) self_per_pass[name].push_back(agg.self_s);
    }
    RequestCoverage coverage;
    for (const SpanLog& log : tracer.logs()) coverage.add(log.spans());
    const double request_wall = wall_per_pass.empty() ? 0.0 : median(wall_per_pass);
    std::cout << "self time per traced pass (median of " << by_pass.size()
              << " passes; request wall " << std::setprecision(4)
              << request_wall << " s summed over the pass's requests):\n";
    for (const auto& [name, v] : self_per_pass) {
      const double s = median(v);
      std::cout << "  " << std::left << std::setw(22) << (name == "request" ? "request (glue)" : name)
                << std::right << std::setw(12) << std::setprecision(5) << s
                << " s " << std::setw(8) << std::setprecision(3)
                << 100.0 * ratio(s, request_wall) << " %\n";
    }
    const double share = coverage.share();
    const double traced_wall = median_wall(passes_of(passes, true));
    const double untraced_wall = median_wall(untraced);
    const double overhead = 100.0 * (ratio(traced_wall, untraced_wall) - 1.0);
    std::cout << "blocking path: layer calls cover " << std::setprecision(4)
              << 100.0 * share << " % of request wall "
              << (coverage.ok() ? "(ok, >= 90 %)" : "(FAILED: below 90 %)")
              << "\n";
    if (!coverage.ok()) correct = false;
    std::cout << "tracing overhead: " << std::setprecision(3) << overhead
              << " % (median wall of traced passes " << std::setprecision(5)
              << traced_wall << " s vs untraced " << untraced_wall << " s)\n";
    std::cout << "runnable threads (" << runnable.samples()
              << " samples in traced passes; count: share):";
    for (std::size_t k = 0; k < runnable.histogram().size(); ++k) {
      std::cout << " " << k << ": " << std::setprecision(3)
                << 100.0 * ratio(static_cast<double>(runnable.histogram()[k]),
                                 static_cast<double>(runnable.samples()))
                << "%";
    }
    std::cout << "; above " << cpus << " cpus: " << std::setprecision(3)
              << 100.0 * runnable.share_above(cpus) << "%\n";
    metrics.push_back({"trace.overhead_pct", overhead, "%"});
    metrics.push_back({"trace.blocking_path_share", share, "ratio"});
    metrics.push_back({"host.runnable_threads_max",
                       static_cast<double>(runnable.max()), "count"});
    metrics.push_back({"host.runnable_over_cpus_share",
                       runnable.share_above(cpus), "ratio"});

    std::cout << "per-layer metrics (medians over traced passes):\n";
    for (const Metric& m : metrics) print_metric(m);

    const std::filesystem::path spans_dir = std::filesystem::path(opts.out_dir) / "spans";
    std::filesystem::create_directories(spans_dir);
    const std::filesystem::path spans_file =
        spans_dir / (opts.workload + "-seed" + std::to_string(opts.seed) + ".tsv");
    std::ofstream out(spans_file);
    tracer.write(out);
    std::cout << "spans: " << spans_file.string() << "\n";
  }

  std::cout << result_json(correct, all.attempted, all.failed, metrics)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Options opts = e2e::parse_args(argc, argv);
  try {
    return e2e::run(opts);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
