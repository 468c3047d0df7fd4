#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <sstream>
#include <thread>

#include "cache/config.hpp"
#include "core/evaluator.hpp"
#include "core/heuristic.hpp"
#include "core/report.hpp"
#include "energy/energy_model.hpp"
#include "phase/adaptive.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/phase_mix.hpp"
#include "trace/replay.hpp"
#include "trace/stream.hpp"
#include "trace/trace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace e2e {

using namespace stcache;

namespace {

constexpr std::size_t kMaxKeptErrors = 5;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng rng(a ^ (b * 0x9E3779B97F4A7C15ULL));
  return rng.next_u64();
}

// The verdict a request must reproduce: the 27 stats and the rendered
// exhaustive report.
struct Reference {
  std::uint64_t words = 0;
  std::vector<CacheStats> stats;
  std::string report;
};

std::string render_report(bool instruction, std::uint64_t words,
                          std::span<const CacheStats> stats,
                          const EnergyModel& model) {
  std::ostringstream os;
  print_exhaustive_report(os, instruction, words, all_configs(), stats, model);
  return os.str();
}

// Serial oneshot bank over a materialized stream, plus the Fig. 6 and
// exhaustive verdicts over it, added to `totals`.
Reference make_reference(bool instruction, std::span<const std::uint32_t> words,
                         const EnergyModel& model, VerdictTotals& totals) {
  BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, 1);
  bank.feed(words);
  Reference ref{words.size(), bank.stats(), {}};
  TraceEvaluator eval(std::span<const std::uint32_t>{}, model);
  prime_all(eval, all_configs(), ref.stats);
  const SearchResult heur = tune(eval);
  const SearchResult ex = tune_exhaustive(eval);
  totals.heuristic_energy_j += heur.best_energy;
  totals.exhaustive_energy_j += ex.best_energy;
  totals.configs_examined += heur.configs_examined;
  ref.report = render_report(instruction, ref.words, ref.stats, model);
  return ref;
}

void check_verdict(const std::string& label, const Reference& ref,
                   std::uint64_t words, const std::vector<CacheStats>& stats,
                   const std::string& report) {
  if (words != ref.words) {
    fail(label + ": tuned " + std::to_string(words) + " words, expected " +
         std::to_string(ref.words));
  }
  if (stats != ref.stats) fail(label + ": 27-config stats differ from the reference");
  if (report != ref.report) fail(label + ": rendered verdict differs from the reference");
}

bool same_timeline(std::span<const PhaseRecord> a,
                   std::span<const PhaseRecord> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const PhaseRecord& x, const PhaseRecord& y) {
                      return x.begin == y.begin && x.end == y.end &&
                             x.verdict == y.verdict && x.config == y.config &&
                             x.table_distance == y.table_distance &&
                             x.matched_phase == y.matched_phase &&
                             x.swept_words == y.swept_words &&
                             x.configs_examined == y.configs_examined;
                    });
}

const char* stream_tag(bool instruction) { return instruction ? "I" : "D"; }

// --- corpus_stream -----------------------------------------------------------

class CorpusStream final : public BenchWorkload {
 public:
  explicit CorpusStream(std::uint64_t seed) : seed_(seed) {
    for (const Workload& w : all_workloads()) {
      const PackedCapture cap = capture_packed(w);
      for (const bool instruction : {true, false}) {
        inputs_.push_back(
            {&w, instruction,
             make_reference(instruction, instruction ? cap.ifetch : cap.data,
                            model_, verdicts_)});
      }
    }
  }

  std::size_t inputs() const override { return inputs_.size(); }
  unsigned shard_jobs() const override { return 1; }

  void run_pass(std::uint32_t pass, Tracer* tracer, PassStats& out) override {
    SpanLog* log = tracer ? &tracer->log(0) : nullptr;
    for (const std::size_t i : shuffled_order(inputs_.size(), mix(seed_, pass))) {
      const Input& in = inputs_[i];
      if (log) log->set_context(pass, next_request_);
      ++next_request_;
      ++out.attempted;
      try {
        std::vector<CacheStats> stats;
        std::string report;
        RunResult run;
        std::uint64_t words = 0;
        const std::int64_t t0 = now_ns();
        {
          ScopedSpan request(log, "request");
          BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, 1);
          {
            ScopedSpan s(log, "stream.run");
            run = stream_workload(*in.kernel, [&](const PackedChunk& chunk) {
              ScopedSpan c(log, "stream.consume");
              const std::span<const std::uint32_t> sel =
                  in.instruction ? chunk.ifetch_words() : chunk.data_words();
              ScopedSpan f(log, "replay.feed");
              bank.feed(sel);
            });
          }
          {
            ScopedSpan s(log, "replay.stats");
            stats = bank.stats();
          }
          words = bank.words_fed();
          ScopedSpan s(log, "core.report");
          report = render_report(in.instruction, words, stats, model_);
        }
        const double latency = 1e-9 * static_cast<double>(now_ns() - t0);
        check_verdict(in.kernel->name + "/" + stream_tag(in.instruction),
                      in.ref, words, stats, report);
        out.latencies_s.push_back(latency);
        out.words += words;
        out.counters["sim.instructions"] += static_cast<double>(run.instructions);
        out.counters["replay.words"] += static_cast<double>(words);
      } catch (const std::exception& e) {
        out.fail(e.what());
      }
    }
  }

 private:
  struct Input {
    const Workload* kernel;
    bool instruction;
    Reference ref;
  };
  std::uint64_t seed_;
  EnergyModel model_;
  std::vector<Input> inputs_;
  std::uint64_t next_request_ = 0;
};

// --- daemon_sessions ---------------------------------------------------------

class DaemonSessions final : public BenchWorkload {
 public:
  static constexpr std::size_t kClients = 2;
  static constexpr std::size_t kWorkers = 2;

  DaemonSessions(std::uint64_t seed, const std::string& work_dir)
      : seed_(seed) {
    // Pin glibc's mmap threshold at its default 128 KiB, before any of this
    // workload's buffers exist. Left dynamic, glibc raises it after the
    // first large free, and the multi-MB file buffers of the client,
    // reader and worker threads then come from per-thread arenas that keep
    // their pages; the loop's peak RSS followed what the arenas had kept
    // (84, 110 or 137 MB, by run) rather than what the loop holds (52-55
    // MB). Pinned, every buffer of 128 KiB or more goes back to the kernel
    // when freed, at the cost of faulting in fresh pages for each file.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    for (const Workload& w : all_workloads()) {
      const PackedCapture cap = capture_packed(w);
      const std::string path = work_dir + "/" + w.name + ".stct";
      save_packed_stct(path, cap.ifetch, cap.data);
      const auto bytes = static_cast<double>(std::filesystem::file_size(path));
      for (const bool instruction : {true, false}) {
        inputs_.push_back(
            {w.name + "/" + stream_tag(instruction), path, bytes, instruction,
             make_reference(instruction, instruction ? cap.ifetch : cap.data,
                            model_, verdicts_)});
      }
    }
    serve::ServerOptions opts;
    opts.socket_path = work_dir + "/tune.sock";
    opts.workers = kWorkers;
    opts.engine = ReplayEngine::kOneshot;
    server_ = std::make_unique<serve::TuningServer>(opts);
    server_->start();
  }

  std::size_t inputs() const override { return inputs_.size(); }
  unsigned shard_jobs() const override { return 0; }
  std::size_t recording_threads() const override { return kClients; }

  std::optional<ServerCounters> server_counters() const override {
    return ServerCounters{server_->sessions_served(), server_->sessions_shed(),
                          server_->sessions_poisoned(),
                          server_->sessions_timed_out()};
  }
  std::uint64_t hellos() const override { return hellos_; }

  void run_pass(std::uint32_t pass, Tracer* tracer, PassStats& out) override {
    std::vector<PassStats> per_client(kClients);
    {
      std::vector<std::jthread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          client_pass(pass, c, tracer ? &tracer->log(c) : nullptr,
                      per_client[c]);
        });
      }
    }
    for (const PassStats& p : per_client) out.merge(p);
  }

 private:
  struct Input {
    std::string label;
    std::string path;
    double file_bytes;
    bool instruction;
    Reference ref;
  };

  void client_pass(std::uint32_t pass, std::size_t client, SpanLog* log,
                   PassStats& out) {
    const std::uint64_t order_seed = mix(mix(seed_, pass), client + 1);
    for (const std::size_t i : shuffled_order(inputs_.size(), order_seed)) {
      const Input& in = inputs_[i];
      if (log) log->set_context(pass, next_request_++);
      ++out.attempted;
      try {
        serve::Verdict verdict;
        std::string report;
        const std::int64_t t0 = now_ns();
        {
          ScopedSpan request(log, "request");
          std::vector<std::uint32_t> sel;
          {
            ScopedSpan s(log, "trace_io.load");
            PackedSplitTrace split = load_packed_trace(in.path);
            sel = std::move(in.instruction ? split.ifetch : split.data);
          }
          std::optional<serve::TuneClient> client;
          {
            ScopedSpan s(log, "serve.connect");
            client.emplace(server_->socket_path(), in.instruction);
          }
          ++hellos_;
          {
            ScopedSpan s(log, "serve.send");
            client->send(sel);
          }
          {
            ScopedSpan s(log, "serve.verdict_wait");
            verdict = client->finish();
          }
          ScopedSpan s(log, "core.report");
          report = render_report(in.instruction, verdict.accesses,
                                 verdict.stats, model_);
        }
        const double latency = 1e-9 * static_cast<double>(now_ns() - t0);
        check_verdict(in.label, in.ref, verdict.accesses, verdict.stats, report);
        out.latencies_s.push_back(latency);
        out.words += verdict.accesses;
        out.counters["trace_io.bytes"] += in.file_bytes;
      } catch (const std::exception& e) {
        out.fail(in.label + ": " + e.what());
      }
    }
  }

  std::uint64_t seed_;
  EnergyModel model_;
  std::vector<Input> inputs_;
  std::unique_ptr<serve::TuningServer> server_;
  std::atomic<std::uint64_t> hellos_{0};
  std::atomic<std::uint64_t> next_request_{0};
};

// --- phase_files -------------------------------------------------------------

class PhaseFiles final : public BenchWorkload {
 public:
  // An odd file count puts the p50 and p90 ranks inside one file's
  // latency cluster rather than on the edge between two. File f is
  // interleaved_plan under the fixed seed f + 1; the run seed only orders
  // the requests. A seed that reordered the segments would move the
  // tuner's sweep work by up to 75% per pass, a spread of the input, not
  // of the system.
  static constexpr unsigned kFiles = 5;
  static constexpr unsigned kSegments = 6;
  static constexpr std::uint64_t kMinSegmentWords = std::uint64_t{192} << 10;
  static constexpr std::uint64_t kMaxSegmentWords = std::uint64_t{320} << 10;

  PhaseFiles(std::uint64_t seed, const std::string& work_dir)
      : seed_(seed),
        shard_jobs_(std::min(4u, std::max(1u, std::thread::hardware_concurrency()))) {
    params_.engine = ReplayEngine::kOneshot;
    params_.sweep_jobs = 1;
    std::vector<PackedCapture> caps;
    for (const Workload& w : all_workloads()) caps.push_back(capture_packed(w));
    for (unsigned f = 0; f < kFiles; ++f) {
      const bool instruction = f % 2 == 0;
      std::vector<std::span<const std::uint32_t>> sources;
      for (const PackedCapture& cap : caps)
        sources.emplace_back(instruction ? cap.ifetch : cap.data);
      const std::vector<PhaseSegmentSpec> plan =
          interleaved_plan(sources.size(), kSegments, kMinSegmentWords,
                           kMaxSegmentWords, f + 1);
      const PhaseMixedStream mixed = compose_phases(sources, plan);
      const std::string path =
          work_dir + "/phase-" + std::to_string(f) + ".stct";
      const std::span<const std::uint32_t> none;
      const std::span<const std::uint32_t> ifetch = instruction ? mixed.words : none;
      const std::span<const std::uint32_t> data = instruction ? none : mixed.words;
      save_packed_stct(path, ifetch, data);
      // The materialized decode is both the round-trip check and the
      // reference route for the mmap-streamed requests.
      const PackedSplitTrace decoded = read_back_stct(path, ifetch, data);
      const std::vector<std::uint32_t>& sel =
          instruction ? decoded.ifetch : decoded.data;
      PhaseAdaptiveTuner tuner(all_configs(), model_, params_);
      tuner.feed(sel);
      files_.push_back({"phase-" + std::to_string(f) + "/" +
                            stream_tag(instruction),
                        path,
                        static_cast<double>(std::filesystem::file_size(path)),
                        instruction,
                        make_reference(instruction, sel, model_, verdicts_),
                        tuner.finish()});
    }
  }

  std::size_t inputs() const override { return files_.size(); }
  unsigned shard_jobs() const override { return shard_jobs_; }

  void run_pass(std::uint32_t pass, Tracer* tracer, PassStats& out) override {
    SpanLog* log = tracer ? &tracer->log(0) : nullptr;
    for (const std::size_t i : shuffled_order(files_.size(), mix(seed_, pass))) {
      const File& file = files_[i];
      if (log) log->set_context(pass, next_request_);
      ++next_request_;
      ++out.attempted;
      try {
        std::vector<CacheStats> stats;
        std::vector<PhaseRecord> timeline;
        std::string report;
        std::uint64_t words = 0;
        PhaseCounts counts;
        const std::int64_t t0 = now_ns();
        {
          ScopedSpan request(log, "request");
          std::optional<MappedPackedTrace> mapped;
          {
            ScopedSpan s(log, "trace_io.load");
            mapped.emplace(file.path);
          }
          PhaseAdaptiveTuner tuner(all_configs(), model_, params_);
          BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot,
                               shard_jobs_);
          {
            ScopedSpan s(log, "trace_io.decode");
            mapped->for_each_chunk([&](const MappedPackedTrace::Chunk& chunk) {
              const std::span<const std::uint32_t> sel =
                  file.instruction ? chunk.ifetch : chunk.data;
              {
                ScopedSpan f(log, "phase.feed");
                tuner.feed(sel);
              }
              ScopedSpan f(log, "replay.feed");
              bank.feed(sel);
            });
          }
          {
            ScopedSpan s(log, "phase.finish");
            timeline = tuner.finish();
          }
          {
            ScopedSpan s(log, "replay.stats");
            stats = bank.stats();
          }
          words = bank.words_fed();
          counts = {tuner.sweeps(), tuner.reuses(), tuner.boundaries(),
                    tuner.swept_words()};
          ScopedSpan s(log, "core.report");
          report = render_report(file.instruction, words, stats, model_);
        }
        const double latency = 1e-9 * static_cast<double>(now_ns() - t0);
        check_verdict(file.label, file.ref, words, stats, report);
        if (!same_timeline(timeline, file.timeline))
          fail(file.label + ": phase timeline differs from the reference");
        out.latencies_s.push_back(latency);
        out.words += words;
        out.counters["replay.words"] += static_cast<double>(words);
        out.counters["trace_io.bytes"] += file.file_bytes;
        out.counters["phase.sweeps"] += static_cast<double>(counts.sweeps);
        out.counters["phase.reuses"] += static_cast<double>(counts.reuses);
        out.counters["phase.boundaries"] += static_cast<double>(counts.boundaries);
        out.counters["phase.swept_words"] += static_cast<double>(counts.swept_words);
      } catch (const std::exception& e) {
        out.fail(file.label + ": " + e.what());
      }
    }
  }

 private:
  struct File {
    std::string label;
    std::string path;
    double file_bytes;
    bool instruction;
    Reference ref;
    std::vector<PhaseRecord> timeline;
  };
  struct PhaseCounts {
    std::uint64_t sweeps = 0;
    std::uint64_t reuses = 0;
    std::uint64_t boundaries = 0;
    std::uint64_t swept_words = 0;
  };

  std::uint64_t seed_;
  unsigned shard_jobs_;
  EnergyModel model_;
  PhaseTunerParams params_;
  std::vector<File> files_;
  std::uint64_t next_request_ = 0;
};

}  // namespace

void PassStats::fail(const std::string& why) {
  ++failed;
  if (errors.size() < kMaxKeptErrors) errors.push_back(why);
}

void PassStats::merge(const PassStats& other) {
  latencies_s.insert(latencies_s.end(), other.latencies_s.begin(),
                     other.latencies_s.end());
  words += other.words;
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < kMaxKeptErrors) errors.push_back(e);
  }
  for (const auto& [name, value] : other.counters) counters[name] += value;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "corpus_stream", "daemon_sessions", "phase_files"};
  return names;
}

std::unique_ptr<BenchWorkload> make_workload(const std::string& name,
                                             std::uint64_t seed,
                                             const std::string& work_dir) {
  if (name == "corpus_stream") return std::make_unique<CorpusStream>(seed);
  if (name == "daemon_sessions")
    return std::make_unique<DaemonSessions>(seed, work_dir);
  if (name == "phase_files") return std::make_unique<PhaseFiles>(seed, work_dir);
  fail("unknown workload '" + name + "'");
}

std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

}  // namespace e2e
