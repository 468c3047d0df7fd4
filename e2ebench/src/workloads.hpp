// The benchmark's three closed-loop workloads over the tuning pipeline.
//
// A request is one packed stream taken from its start to its rendered
// verdict. A pass runs every input of the workload once, in an order the
// seed shuffles per pass; the inputs themselves do not depend on the seed. Constructing a workload is its set-up: it builds
// the inputs, computes every request's reference verdict by a different
// route than the timed one, and starts the server where there is one.
//
//   corpus_stream    stream_workload -> 27-config bank (oneshot, 1 job) ->
//                    exhaustive report, for the 19 Table 1 kernels x {I, D};
//                    reference: materialized capture_packed -> bank.
//   daemon_sessions  two clients against an in-process TuningServer (2
//                    workers); each session loads a Table 1 STCT file with
//                    load_packed_trace and streams one of its two streams;
//                    reference: in-process bank over the capture.
//   phase_files      phase-mixed STCT files read through
//                    MappedPackedTrace into a PhaseAdaptiveTuner (1 job)
//                    and a static bank sharded over min(4, cpus) jobs;
//                    reference: serial bank and tuner over a materialized
//                    decode of the same file.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "spans.hpp"

namespace e2e {

// What one pass did. Counters are per-pass layer counts keyed by name
// (sim.instructions, replay.words, trace_io.bytes, phase.sweeps, ...).
struct PassStats {
  std::vector<double> latencies_s;  // successful requests only
  std::uint64_t words = 0;          // packed words tuned
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failure messages
  std::map<std::string, double> counters;

  void fail(const std::string& why);
  void merge(const PassStats& other);
};

// Deterministic verdict totals over the workload's distinct inputs, from
// the reference stats every request is checked against.
struct VerdictTotals {
  double heuristic_energy_j = 0.0;   // Fig. 6 verdicts
  double exhaustive_energy_j = 0.0;  // 27-config optima
  std::uint64_t configs_examined = 0;  // Fig. 6 evaluations
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  // One pass over every input. `tracer` is null in untraced passes;
  // otherwise thread t of the pass records into tracer->log(t).
  virtual void run_pass(std::uint32_t pass, Tracer* tracer,
                        PassStats& out) = 0;
  virtual std::size_t recording_threads() const { return 1; }
  virtual std::size_t inputs() const = 0;
  // Shard count of the bank the benchmark itself feeds (0: none).
  virtual unsigned shard_jobs() const = 0;

  // Server-side accounting, for the workloads that run a server.
  virtual std::optional<ServerCounters> server_counters() const {
    return std::nullopt;
  }
  virtual std::uint64_t hellos() const { return 0; }

  const VerdictTotals& verdicts() const { return verdicts_; }

 protected:
  VerdictTotals verdicts_;
};

const std::vector<std::string>& workload_names();

// Set-up: build `name` for `seed`, writing its files under `work_dir`
// (which must exist). Throws on an unknown name or a failed set-up check.
std::unique_ptr<BenchWorkload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);

// Seeded Fisher-Yates permutation of [0, n).
std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed);

}  // namespace e2e
