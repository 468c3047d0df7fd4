// Replay drivers: feed a captured address stream through a cache model and
// collect the CacheStats that Equation 1 consumes.
//
// Three engines implement cold-start configuration measurement:
//
//   kReference  ConfigurableCache::access() per record — the behavioral
//               model, also usable warm and across reconfigurations.
//   kFast       FastCacheSim (cache/fast_cache.hpp) — SoA line store,
//               precomputed mapping constants, compile-time specialized
//               access loop. Bit-identical CacheStats, several times the
//               throughput, one traversal per configuration.
//   kOneshot    StackSweepSim (cache/stack_sweep.hpp) — single-pass
//               stack-distance sweep that evaluates every write-back,
//               victim-buffer-off configuration of one line size in ONE
//               traversal (the 27-point space in three). It only applies
//               to measure_config_bank() requests: a bank's configs are
//               grouped by line size, groups of two or more go through the
//               stack kernel, and everything else (single-config groups,
//               per-config measurement, write-through, victim buffers)
//               falls back to the fast engine. The process default.
//
// The engines are interchangeable by construction and the differential
// suites (tests/replay_equivalence_test.cpp, tests/stack_sweep_test.cpp)
// enforce it: every figure or table is byte-identical under any --engine.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/cache_model.hpp"
#include "cache/config.hpp"
#include "cache/configurable_cache.hpp"
#include "cache/fast_cache.hpp"
#include "cache/nested_sweep.hpp"
#include "cache/stack_sweep.hpp"
#include "trace/trace.hpp"

namespace stcache {

enum class ReplayEngine : std::uint8_t {
  kDefault = 0,  // resolve to the process-wide default (oneshot unless overridden)
  kReference,
  kFast,
  kOneshot,
};

// Process-wide default engine used when a measure call passes kDefault.
// Benches set this from --engine=reference|fast|oneshot before sweeping;
// reads are atomic so sweep worker threads may resolve it concurrently.
ReplayEngine default_replay_engine();
void set_default_replay_engine(ReplayEngine engine);  // kDefault resets to kOneshot

// Process-wide default shard count for the set-partitioned parallel
// oneshot sweep (BankAccumulator below). The default is 1 (serial) unless
// the STCACHE_SWEEP_JOBS environment variable says otherwise — intra-bank
// parallelism composes with the benches' workload-level --jobs pools, so
// it is strictly opt-in (--sweep-jobs on the tools/benches, or
// set_default_sweep_jobs here). Values are clamped to the partition count
// (at most 32: the partition key must stay inside the set-index bits every
// configuration shares; see replay.cpp). set_default_sweep_jobs(0) resets
// to the environment-driven default.
unsigned default_sweep_jobs();
void set_default_sweep_jobs(unsigned jobs);

// Number of set partitions the parallel sweep scatters a packed stream
// into: a power of two in [1, 32], default 32, overridable via
// STCACHE_SWEEP_PARTITIONS (resolved once per process). Shard s replays
// line-size group g over partitions p with (p + g) mod jobs == s — more
// partitions than shards smooths imbalance without changing results.
unsigned sweep_partitions();

const char* to_string(ReplayEngine engine);
// Parses "reference", "fast" or "oneshot"; throws stcache::Error otherwise.
ReplayEngine parse_replay_engine(const std::string& name);

// Encode a record stream for FastCacheSim/StackSweepSim::replay (bit 31 =
// write, bits 30..0 = 16 B block number). Done once per stream and shared
// by every cache in a bank sweep. The out-parameter overload reuses the
// buffer's capacity, so a loop of bank sweeps (bench_replay_throughput,
// repeated measurements of one workload) packs without reallocating.
std::vector<std::uint32_t> pack_stream(std::span<const TraceRecord> stream);
void pack_stream(std::span<const TraceRecord> stream,
                 std::vector<std::uint32_t>& out);

// Replay `stream` through an existing cache (state and stats accumulate;
// callers that want a cold run construct a fresh cache). Returns the stats
// delta contributed by this replay. Warm replay is inherently a reference-
// model operation: the fast engine only does cold fixed-configuration runs.
CacheStats replay(ConfigurableCache& cache, std::span<const TraceRecord> stream);
CacheStats replay(CacheModel& cache, std::span<const TraceRecord> stream);

// Cold-start evaluation of one configuration against one stream: construct
// a fresh cache, replay, return its stats. This is the paper's
// per-configuration measurement primitive.
CacheStats measure_config(const CacheConfig& cfg,
                          std::span<const TraceRecord> stream,
                          const TimingParams& timing = {},
                          ReplayEngine engine = ReplayEngine::kDefault);

// Full-parameter variant (write policy, victim buffer) used by the
// ablation experiments and the differential-equivalence suite.
struct ReplayParams {
  TimingParams timing{};
  WritePolicy write_policy = WritePolicy::kWriteBack;
  std::uint32_t victim_entries = 0;
  ReplayEngine engine = ReplayEngine::kDefault;
};
CacheStats measure_config_ex(const CacheConfig& cfg,
                             std::span<const TraceRecord> stream,
                             const ReplayParams& params);

// Cold-start evaluation of one generic CacheModel geometry. Engine
// dispatch mirrors measure_config: fast/oneshot requests run FastGeomSim
// over the packed stream (the oneshot kernel only pays off across a bank),
// the reference engine — and any sub-16 B line, which a packed 16 B-block
// stream cannot represent — replays CacheModel over the raw records.
// Bit-identical CacheStats either way (the equivalence suite proves it).
CacheStats measure_geometry(const CacheGeometry& g,
                            std::span<const TraceRecord> stream,
                            const TimingParams& timing = {},
                            ReplayEngine engine = ReplayEngine::kDefault);

// Same over an already-packed stream; requires line_bytes >= 16 (throws
// otherwise — the low 4 address bits are gone).
CacheStats measure_geometry_packed(const CacheGeometry& g,
                                   std::span<const std::uint32_t> packed,
                                   const TimingParams& timing = {},
                                   ReplayEngine engine = ReplayEngine::kDefault);

// Bank evaluation over generic geometries — the scaled-space analogue of
// measure_config_bank. stats[i] is bit-identical to measure_geometry
// (i.e. CacheModel replay) for every engine. The oneshot engine groups
// the bank by line-size family and evaluates each group of two or more in
// ONE generalized stack-distance traversal (NestedSweepSim), falling back
// to FastGeomSim for singleton families; sub-16 B-line geometries (which
// cannot replay packed streams) run on CacheModel directly. sweep_jobs
// shards the oneshot traversals exactly like the platform sweep (0 =
// default_sweep_jobs()).
std::vector<CacheStats> measure_geometry_bank(
    std::span<const CacheGeometry> geoms, std::span<const TraceRecord> stream,
    const TimingParams& timing = {},
    ReplayEngine engine = ReplayEngine::kDefault, unsigned sweep_jobs = 0);
// Packed-stream variant: every geometry must have line_bytes >= 16.
std::vector<CacheStats> measure_geometry_bank(
    std::span<const CacheGeometry> geoms,
    std::span<const std::uint32_t> packed, const TimingParams& timing = {},
    ReplayEngine engine = ReplayEngine::kDefault, unsigned sweep_jobs = 0);

// Cold-start evaluation of one configuration against an already-packed
// stream (capture_packed / load_packed_trace output). Stats are
// bit-identical to measure_config over the unpacked records for every
// engine: the reference path replays block << 4, and no 16 B-or-wider
// geometry inspects the discarded low bits.
CacheStats measure_config_packed(const CacheConfig& cfg,
                                 std::span<const std::uint32_t> packed,
                                 const TimingParams& timing = {},
                                 ReplayEngine engine = ReplayEngine::kDefault);

// Bank evaluation: evaluate every configuration cold against one stream,
// decoding the trace once. stats[i] is bit-identical to
// measure_config(configs[i], stream, timing); the sweep tests assert this.
// The oneshot engine groups the bank's configs by line size and evaluates
// every group of two or more in a single stack-distance traversal
// (StackSweepSim), falling back to the fast kernel for singleton groups;
// the fast engine packs the stream once and runs config-major; the
// reference engine interleaves all caches over a single record pass.
// The scratch overload reuses a caller-provided packed-stream buffer
// across calls (the packing is otherwise reallocated per bank).
std::vector<CacheStats> measure_config_bank(
    std::span<const CacheConfig> configs, std::span<const TraceRecord> stream,
    const TimingParams& timing = {},
    ReplayEngine engine = ReplayEngine::kDefault);
std::vector<CacheStats> measure_config_bank(
    std::span<const CacheConfig> configs, std::span<const TraceRecord> stream,
    const TimingParams& timing, ReplayEngine engine,
    std::vector<std::uint32_t>& packed_scratch);

// Incremental bank evaluation over a *packed* stream. Construction fixes
// the configurations and engine; feed() folds any number of in-order
// packed slices — the streaming pipeline's chunks, or one whole stream —
// and stats() returns results bit-identical to measure_config_bank() over
// the concatenation of everything fed. All three engines accumulate across
// replay calls by construction, which is what lets a capture thread
// overlap the sweep chunk by chunk. The engine is resolved at
// construction, so a bank outlives later set_default_replay_engine calls.
//
// The reference path feeds ConfigurableCache::access(block << 4, write):
// packing discards the low 4 address bits, which no 16 B-or-wider cache
// geometry ever inspects (the equivalence suite proves stats invariance).
//
// Parallel sweep (oneshot engine only): with sweep_jobs > 1 each feed()
// scatters the packed chunk into partition buckets keyed by bits
// [B, B + log2(parts)) of the 16 B block number, where B and the
// partition count are derived from the bank: B is the largest
// line-size shift of any oneshot-grouped config (so the key sits at or
// above line granularity for everyone) and the key width is capped by
// the narrowest set-index span, min over configs of
// log2(line/16) + log2(sets) - B. For the platform bank that yields the
// historical bits 2..6 and up to 32 partitions; for scaled geometry
// banks (whose smallest configs may have as few as 4 sets) the count is
// clamped further. Either way every bucket is a union of whole cache
// sets of EVERY grouped config and the sublines of any logical line
// land in one bucket together. Cold-start set-indexed caches factorize
// over sets, so each shard's sim replica replays its buckets (in stream
// order within a bucket) and accumulates exactly the histogram its sets
// would have contributed serially. stats() sums the per-shard Totals —
// exact integer addition — making the merged CacheStats bit-identical
// to a serial sweep for every shard count; tests/sharded_sweep_test.cpp
// enforces this.
//
// The unit of shard work is a (group, partition) item — one line-size
// traversal over one bucket — owned by shard (partition + group) mod
// jobs, so the traversals of one hot partition land on different shards.
// Sharded feeds are pipelined: feed() waits for the previous feed's
// replays, scatters the words into the buckets and returns while all
// `jobs` shards replay them on a lazily spawned ThreadPool of `jobs`
// workers owned by the accumulator. The caller may reuse or overwrite its
// span as soon as feed() returns (the buckets hold copies). An exception
// thrown by a shard replay surfaces from the next feed() or stats()
// (after every replay in flight has finished); the destructor and a move
// assignment onto the bank wait for in-flight replays and drop their
// errors. All sharded state sits in one heap block, so a bank may be
// moved while replays run. The reference/fast/singleton paths stay serial
// and run on the calling thread inside feed() (nothing shares their
// traversal, so the oneshot groups are where the wall-clock lives).
//
// The geometry-bank constructor accepts a scaled space's CacheGeometry
// list under the same contract: oneshot groups line-size families into
// NestedSweepSim traversals, fast/reference use FastGeomSim/CacheModel,
// and stats()[i] is bit-identical to CacheModel replay. Geometry banks
// require line_bytes >= 16 everywhere (packed streams are 16 B blocks;
// measure_geometry_bank over raw records routes smaller lines around
// the accumulator).
class BankAccumulator {
 public:
  // sweep_jobs: 0 = default_sweep_jobs(); clamped to sweep_partitions().
  BankAccumulator(std::span<const CacheConfig> configs,
                  const TimingParams& timing = {},
                  ReplayEngine engine = ReplayEngine::kDefault,
                  unsigned sweep_jobs = 0);
  // Scaled-space bank: generic CacheModel geometries, all line_bytes >= 16.
  BankAccumulator(std::span<const CacheGeometry> geoms,
                  const TimingParams& timing = {},
                  ReplayEngine engine = ReplayEngine::kDefault,
                  unsigned sweep_jobs = 0);
  ~BankAccumulator();
  BankAccumulator(BankAccumulator&&) noexcept;
  BankAccumulator& operator=(BankAccumulator&&) noexcept;

  // Folds the next in-order slice. The caller may reuse `packed` as soon
  // as this returns, even while sharded replays of it are still running.
  // Rethrows an error of the previous feed's shard replays.
  void feed(std::span<const std::uint32_t> packed);
  // stats()[i] corresponds to configs[i] at construction. Waits for the
  // last feed's shard replays and rethrows their error, if any. Not safe
  // to call concurrently with feed() or another stats(). With metrics
  // enabled and jobs > 1, prints the "[sweep] shard imbalance" line:
  // per shard, the words replayed summed over its (group, partition)
  // items, as max, mean and max/mean.
  std::vector<CacheStats> stats() const;
  std::uint64_t words_fed() const { return words_fed_; }
  // Effective shard count for the oneshot sweep groups (1 = serial).
  unsigned sweep_jobs() const { return jobs_; }

 private:
  struct Sharded;  // replay.cpp: buckets, sim replicas, pool, pending

  std::size_t n_;
  std::uint64_t words_fed_ = 0;
  // Exactly one of the following banks is populated, per the engine.
  std::vector<ConfigurableCache> reference_bank_;
  std::vector<FastCacheSim> fast_bank_;  // fast engine, index-aligned
  struct SweepGroup {
    // The serial traversal (one sim); moved into sharded_ when jobs > 1.
    std::vector<StackSweepSim> shards;
    std::vector<CacheConfig> configs;
    std::vector<std::size_t> where;  // indices into the bank's stats
  };
  std::vector<SweepGroup> sweep_groups_;          // oneshot: per line size
  std::vector<std::size_t> singleton_where_;      // oneshot: fallback sims
  std::vector<FastCacheSim> singleton_sims_;
  // Geometry-bank twins of the above (scaled spaces).
  std::vector<CacheModel> geom_reference_bank_;
  std::vector<FastGeomSim> geom_fast_bank_;
  struct GeomSweepGroup {
    std::vector<NestedSweepSim> shards;  // as SweepGroup::shards
    std::vector<CacheGeometry> geoms;
    std::vector<std::size_t> where;
  };
  std::vector<GeomSweepGroup> geom_groups_;  // oneshot: per line-size family
  std::vector<std::size_t> geom_singleton_where_;
  std::vector<FastGeomSim> geom_singleton_sims_;
  unsigned jobs_ = 1;  // sweep shard count
  std::unique_ptr<Sharded> sharded_;  // parallel-sweep state (jobs_ > 1)
};

}  // namespace stcache
