#include "trace/replay.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <exception>
#include <future>
#include <iostream>

#include "cache/fast_cache.hpp"
#include "cache/stack_sweep.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace stcache {

namespace {

std::atomic<ReplayEngine> g_default_engine{ReplayEngine::kOneshot};

ReplayEngine resolve(ReplayEngine engine) {
  return engine == ReplayEngine::kDefault
             ? g_default_engine.load(std::memory_order_relaxed)
             : engine;
}

// Upper bound on partitions AND shards. The partition key uses bits 2..6
// of the 16 B block number; those five bits are the intersection of the
// set-index bit ranges of every supported configuration (128 sets at 64 B
// lines indexes bits 2..8, 128 sets at 16 B lines indexes bits 0..6), so
// a coarser key would split some configuration's set across partitions
// and break the exact-merge argument.
constexpr unsigned kMaxSweepPartitions = 32;

// 0 = resolve from the environment (STCACHE_SWEEP_JOBS, else serial).
std::atomic<unsigned> g_sweep_jobs{0};

unsigned clamp_jobs(long v) {
  if (v < 1) return 1;
  if (v > static_cast<long>(kMaxSweepPartitions)) return kMaxSweepPartitions;
  return static_cast<unsigned>(v);
}

unsigned env_sweep_jobs() {
  static const unsigned resolved = [] {
    if (const char* e = std::getenv("STCACHE_SWEEP_JOBS")) {
      return clamp_jobs(std::strtol(e, nullptr, 10));
    }
    return 1u;
  }();
  return resolved;
}

}  // namespace

unsigned default_sweep_jobs() {
  const unsigned v = g_sweep_jobs.load(std::memory_order_relaxed);
  return v != 0 ? v : env_sweep_jobs();
}

void set_default_sweep_jobs(unsigned jobs) {
  g_sweep_jobs.store(jobs == 0 ? 0 : clamp_jobs(static_cast<long>(jobs)),
                     std::memory_order_relaxed);
}

unsigned sweep_partitions() {
  static const unsigned parts = [] {
    unsigned p = kMaxSweepPartitions;
    if (const char* e = std::getenv("STCACHE_SWEEP_PARTITIONS")) {
      p = clamp_jobs(std::strtol(e, nullptr, 10));
    }
    return std::bit_floor(p);  // the scatter key is (block >> 2) & (p - 1)
  }();
  return parts;
}

ReplayEngine default_replay_engine() {
  return g_default_engine.load(std::memory_order_relaxed);
}

void set_default_replay_engine(ReplayEngine engine) {
  g_default_engine.store(
      engine == ReplayEngine::kDefault ? ReplayEngine::kOneshot : engine,
      std::memory_order_relaxed);
}

const char* to_string(ReplayEngine engine) {
  switch (engine) {
    case ReplayEngine::kDefault: return "default";
    case ReplayEngine::kReference: return "reference";
    case ReplayEngine::kFast: return "fast";
    case ReplayEngine::kOneshot: return "oneshot";
  }
  return "?";
}

ReplayEngine parse_replay_engine(const std::string& name) {
  if (name == "reference") return ReplayEngine::kReference;
  if (name == "fast") return ReplayEngine::kFast;
  if (name == "oneshot") return ReplayEngine::kOneshot;
  fail("unknown replay engine '" + name + "' (expected reference|fast|oneshot)");
}

void pack_stream(std::span<const TraceRecord> stream,
                 std::vector<std::uint32_t>& out) {
  out.clear();
  out.reserve(stream.size());
  for (const TraceRecord& r : stream) {
    out.push_back((r.addr >> 4) | (r.kind == AccessKind::kWrite
                                       ? FastCacheSim::kPackedWriteBit
                                       : 0u));
  }
}

std::vector<std::uint32_t> pack_stream(std::span<const TraceRecord> stream) {
  std::vector<std::uint32_t> packed;
  pack_stream(stream, packed);
  return packed;
}

CacheStats replay(ConfigurableCache& cache, std::span<const TraceRecord> stream) {
  const CacheStats before = cache.stats();
  for (const TraceRecord& r : stream) {
    cache.access(r.addr, r.kind == AccessKind::kWrite);
  }
  return cache.stats() - before;
}

CacheStats replay(CacheModel& cache, std::span<const TraceRecord> stream) {
  const CacheStats before = cache.stats();
  for (const TraceRecord& r : stream) {
    cache.access(r.addr, r.kind == AccessKind::kWrite);
  }
  return cache.stats() - before;
}

CacheStats measure_config_ex(const CacheConfig& cfg,
                             std::span<const TraceRecord> stream,
                             const ReplayParams& params) {
  const ReplayEngine engine = resolve(params.engine);
  // The oneshot kernel only pays off across a bank; a single-configuration
  // measurement (and anything write-through or victim-buffered, which is
  // outside the stack kernel's scope) runs on the fast engine.
  if (engine == ReplayEngine::kFast || engine == ReplayEngine::kOneshot) {
    FastCacheSim sim(cfg, params.timing, params.write_policy,
                     params.victim_entries);
    sim.replay(pack_stream(stream));
    return sim.stats();
  }
  ConfigurableCache cache(cfg, params.timing, params.write_policy,
                          params.victim_entries);
  return replay(cache, stream);
}

CacheStats measure_config(const CacheConfig& cfg,
                          std::span<const TraceRecord> stream,
                          const TimingParams& timing, ReplayEngine engine) {
  ReplayParams params;
  params.timing = timing;
  params.engine = engine;
  return measure_config_ex(cfg, stream, params);
}

CacheStats measure_geometry(const CacheGeometry& g,
                            std::span<const TraceRecord> stream,
                            const TimingParams& timing, ReplayEngine engine) {
  // Sub-16 B lines index below the packed 16 B block granularity, so they
  // stay on the reference model over the raw addresses regardless of the
  // requested engine.
  if (resolve(engine) == ReplayEngine::kReference || g.line_bytes < 16) {
    CacheModel cache(g, timing);
    return replay(cache, stream);
  }
  FastGeomSim sim(g, timing);
  sim.replay(pack_stream(stream));
  return sim.stats();
}

CacheStats measure_geometry_packed(const CacheGeometry& g,
                                   std::span<const std::uint32_t> packed,
                                   const TimingParams& timing,
                                   ReplayEngine engine) {
  if (g.line_bytes < 16) {
    fail("measure_geometry_packed: sub-16 B line geometry cannot replay a "
         "packed 16 B-block stream");
  }
  if (resolve(engine) == ReplayEngine::kReference) {
    CacheModel cache(g, timing);
    for (const std::uint32_t word : packed) {
      cache.access((word & FastCacheSim::kPackedBlockMask) << 4,
                   (word & FastCacheSim::kPackedWriteBit) != 0);
    }
    return cache.stats();
  }
  FastGeomSim sim(g, timing);
  sim.replay(packed);
  return sim.stats();
}

CacheStats measure_config_packed(const CacheConfig& cfg,
                                 std::span<const std::uint32_t> packed,
                                 const TimingParams& timing,
                                 ReplayEngine engine) {
  if (resolve(engine) == ReplayEngine::kReference) {
    ConfigurableCache cache(cfg, timing);
    for (const std::uint32_t word : packed) {
      cache.access((word & FastCacheSim::kPackedBlockMask) << 4,
                   (word & FastCacheSim::kPackedWriteBit) != 0);
    }
    return cache.stats();
  }
  FastCacheSim sim(cfg, timing);
  sim.replay(packed);
  return sim.stats();
}

// Set-partitioned sweep state (jobs > 1). Everything a shard replay
// touches lives here, on the heap, so moving the accumulator (the
// defaulted noexcept moves below) never moves data a pool thread is
// still reading or writing.
struct BankAccumulator::Sharded {
  Sharded(unsigned jobs_in, unsigned parts_in, unsigned shift_in)
      : jobs(jobs_in), parts(parts_in), shift(shift_in), part_buf(parts_in),
        shard_words(jobs_in, 0) {}

  // The work unit is a (group, partition) item: group g indexes the
  // sweep groups, then the geometry groups. Shard (p + g) mod jobs owns
  // item (g, p), so the line-size traversals of one hot partition run on
  // different shards.
  void replay_shard(unsigned s) {
    std::uint64_t words = 0;
    unsigned g = 0;
    const auto replay_group = [&](auto& replicas) {
      for (unsigned p = (s + jobs - g % jobs) % jobs; p < parts; p += jobs) {
        const std::vector<std::uint32_t>& bucket = part_buf[p];
        if (bucket.empty()) continue;
        replicas[s].replay(bucket);
        words += bucket.size();
      }
      ++g;
    };
    for (std::vector<StackSweepSim>& replicas : stack) replay_group(replicas);
    for (std::vector<NestedSweepSim>& replicas : nested) replay_group(replicas);
    shard_words[s] += words;
  }

  // Scatter into set partitions (stream order preserved within each
  // bucket — the only order that matters, since partitions never share a
  // cache set), then queue every shard's replay on the pool and return.
  void launch(std::span<const std::uint32_t> packed) {
    for (std::vector<std::uint32_t>& bucket : part_buf) bucket.clear();
    const std::uint32_t pmask = parts - 1;
    for (const std::uint32_t word : packed) {
      // Key bits [shift, shift + log2(parts)) of the block number (the
      // write bit is stripped first; for the platform bank this is the
      // historical bits 2..6).
      part_buf[((word & FastCacheSim::kPackedBlockMask) >> shift) & pmask]
          .push_back(word);
    }
    if (!pool) pool = std::make_unique<ThreadPool>(jobs);
    for (unsigned s = 0; s < jobs; ++s) {
      pending.push_back(pool->submit([this, s] { replay_shard(s); }));
    }
  }

  // Block until the last launch's replays finish; every one is waited
  // for before the first shard error (if any) is rethrown, so no replay
  // still reads the buckets when the caller refills them.
  void wait() {
    std::exception_ptr error;
    for (std::future<void>& f : pending) {
      try {
        f.get();
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    pending.clear();
    if (error) std::rethrow_exception(error);
  }

  const unsigned jobs;
  const unsigned parts;  // scatter partitions (power of two, >= jobs)
  const unsigned shift;  // low bit of the partition key
  // Sim replicas per group, [group][shard].
  std::vector<std::vector<StackSweepSim>> stack;
  std::vector<std::vector<NestedSweepSim>> nested;
  std::vector<std::vector<std::uint32_t>> part_buf;  // reused per feed
  std::vector<std::uint64_t> shard_words;  // words replayed, per shard
  std::vector<std::future<void>> pending;  // the last launch's replays
  // `jobs` workers, spawned on first launch. Declared last: its
  // destructor runs every queued replay and joins before the state above
  // is destroyed.
  std::unique_ptr<ThreadPool> pool;
};

BankAccumulator::BankAccumulator(std::span<const CacheConfig> configs,
                                 const TimingParams& timing,
                                 ReplayEngine engine, unsigned sweep_jobs)
    : n_(configs.size()) {
  switch (resolve(engine)) {
    case ReplayEngine::kReference:
      reference_bank_.reserve(n_);
      for (const CacheConfig& cfg : configs) {
        reference_bank_.emplace_back(cfg, timing);
      }
      break;
    case ReplayEngine::kFast:
      fast_bank_.reserve(n_);
      for (const CacheConfig& cfg : configs) {
        fast_bank_.emplace_back(cfg, timing);
      }
      break;
    default:
      // Oneshot: one stack-distance traversal per line size evaluates every
      // configuration of that group at once; a singleton group gains
      // nothing from the shared traversal and runs on the fast kernel.
      for (const LineBytes line : kLineSizes) {
        std::vector<CacheConfig> group;
        std::vector<std::size_t> where;
        for (std::size_t i = 0; i < n_; ++i) {
          if (configs[i].line == line) {
            group.push_back(configs[i]);
            where.push_back(i);
          }
        }
        if (group.empty()) continue;
        if (group.size() == 1) {
          singleton_where_.push_back(where.front());
          singleton_sims_.emplace_back(group.front(), timing);
          continue;
        }
        SweepGroup g;
        g.shards.emplace_back(group, timing);
        g.configs = std::move(group);
        g.where = std::move(where);
        sweep_groups_.push_back(std::move(g));
      }
      if (!sweep_groups_.empty()) {
        if (sweep_jobs == 0) sweep_jobs = default_sweep_jobs();
        const unsigned parts = sweep_partitions();
        jobs_ = std::min(clamp_jobs(static_cast<long>(sweep_jobs)), parts);
        if (jobs_ > 1) {
          // One sim replica per shard per group; each shard accumulates
          // the (group, partition) items it owns and stats() sums the
          // Totals. The serial sim becomes shard 0's replica.
          sharded_ = std::make_unique<Sharded>(jobs_, parts, 2);
          for (SweepGroup& g : sweep_groups_) {
            std::vector<StackSweepSim> replicas = std::move(g.shards);
            g.shards.clear();
            replicas.reserve(jobs_);
            for (unsigned s = 1; s < jobs_; ++s) {
              replicas.emplace_back(g.configs, timing);
            }
            sharded_->stack.push_back(std::move(replicas));
          }
        }
      }
      break;
  }
}

BankAccumulator::BankAccumulator(std::span<const CacheGeometry> geoms,
                                 const TimingParams& timing,
                                 ReplayEngine engine, unsigned sweep_jobs)
    : n_(geoms.size()) {
  for (const CacheGeometry& g : geoms) {
    if (!g.valid() || g.line_bytes < 16) {
      fail("BankAccumulator: geometry bank requires valid line_bytes >= 16 "
           "geometries (measure_geometry_bank over records routes smaller "
           "lines to the reference model)");
    }
  }
  switch (resolve(engine)) {
    case ReplayEngine::kReference:
      geom_reference_bank_.reserve(n_);
      for (const CacheGeometry& g : geoms) {
        geom_reference_bank_.emplace_back(g, timing);
      }
      break;
    case ReplayEngine::kFast:
      geom_fast_bank_.reserve(n_);
      for (const CacheGeometry& g : geoms) {
        geom_fast_bank_.emplace_back(g, timing);
      }
      break;
    default: {
      // Oneshot: one generalized stack-distance traversal per line-size
      // family (set counts of one family always nest: powers of two).
      // Deterministic family order: ascending line size.
      std::vector<std::uint32_t> lines;
      for (const CacheGeometry& g : geoms) {
        if (std::find(lines.begin(), lines.end(), g.line_bytes) ==
            lines.end()) {
          lines.push_back(g.line_bytes);
        }
      }
      std::sort(lines.begin(), lines.end());
      for (const std::uint32_t line : lines) {
        std::vector<CacheGeometry> family;
        std::vector<std::size_t> where;
        for (std::size_t i = 0; i < n_; ++i) {
          if (geoms[i].line_bytes == line) {
            family.push_back(geoms[i]);
            where.push_back(i);
          }
        }
        if (family.size() == 1) {
          geom_singleton_where_.push_back(where.front());
          geom_singleton_sims_.emplace_back(family.front(), timing);
          continue;
        }
        GeomSweepGroup g;
        g.shards.emplace_back(family, timing);
        g.geoms = std::move(family);
        g.where = std::move(where);
        geom_groups_.push_back(std::move(g));
      }
      if (!geom_groups_.empty()) {
        if (sweep_jobs == 0) sweep_jobs = default_sweep_jobs();
        // Partition key derivation (see the class comment): the key must
        // sit at or above every family's line granularity and inside the
        // narrowest set-index span of any grouped geometry.
        unsigned max_shift = 0, min_top = 31;
        for (const GeomSweepGroup& g : geom_groups_) {
          for (const CacheGeometry& geo : g.geoms) {
            const unsigned k = static_cast<unsigned>(
                std::countr_zero(geo.line_bytes)) - 4;
            max_shift = std::max(max_shift, k);
            min_top = std::min(
                min_top,
                k + static_cast<unsigned>(std::countr_zero(geo.num_sets())));
          }
        }
        const unsigned key_bits =
            min_top > max_shift ? min_top - max_shift : 0;
        const unsigned parts =
            std::min(sweep_partitions(),
                     key_bits >= 5 ? kMaxSweepPartitions : 1u << key_bits);
        jobs_ = std::min(clamp_jobs(static_cast<long>(sweep_jobs)), parts);
        if (jobs_ > 1) {
          sharded_ = std::make_unique<Sharded>(jobs_, parts, max_shift);
          for (GeomSweepGroup& g : geom_groups_) {
            std::vector<NestedSweepSim> replicas = std::move(g.shards);
            g.shards.clear();
            replicas.reserve(jobs_);
            for (unsigned s = 1; s < jobs_; ++s) {
              replicas.emplace_back(g.geoms, timing);
            }
            sharded_->nested.push_back(std::move(replicas));
          }
        }
      }
      break;
    }
  }
}

BankAccumulator::~BankAccumulator() = default;
BankAccumulator::BankAccumulator(BankAccumulator&&) noexcept = default;
BankAccumulator& BankAccumulator::operator=(BankAccumulator&&) noexcept =
    default;

void BankAccumulator::feed(std::span<const std::uint32_t> packed) {
  words_fed_ += packed.size();
  if (!reference_bank_.empty() || !geom_reference_bank_.empty()) {
    for (const std::uint32_t word : packed) {
      const std::uint32_t addr = (word & FastCacheSim::kPackedBlockMask) << 4;
      const bool write = (word & FastCacheSim::kPackedWriteBit) != 0;
      for (ConfigurableCache& cache : reference_bank_) {
        cache.access(addr, write);
      }
      for (CacheModel& cache : geom_reference_bank_) {
        cache.access(addr, write);
      }
    }
    return;
  }
  for (FastCacheSim& sim : fast_bank_) sim.replay(packed);
  for (FastGeomSim& sim : geom_fast_bank_) sim.replay(packed);
  if (sharded_) {
    // The previous feed's replays still read the buckets: wait (and
    // surface their errors) before refilling them.
    sharded_->wait();
    if (!packed.empty()) sharded_->launch(packed);
  } else {
    for (SweepGroup& g : sweep_groups_) g.shards.front().replay(packed);
    for (GeomSweepGroup& g : geom_groups_) g.shards.front().replay(packed);
  }
  for (FastCacheSim& sim : singleton_sims_) sim.replay(packed);
  for (FastGeomSim& sim : geom_singleton_sims_) sim.replay(packed);
}

std::vector<CacheStats> BankAccumulator::stats() const {
  std::vector<CacheStats> out(n_);
  for (std::size_t i = 0; i < reference_bank_.size(); ++i) {
    out[i] = reference_bank_[i].stats();
  }
  for (std::size_t i = 0; i < fast_bank_.size(); ++i) {
    out[i] = fast_bank_[i].stats();
  }
  for (std::size_t i = 0; i < geom_reference_bank_.size(); ++i) {
    out[i] = geom_reference_bank_[i].stats();
  }
  for (std::size_t i = 0; i < geom_fast_bank_.size(); ++i) {
    out[i] = geom_fast_bank_[i].stats();
  }
  if (sharded_) sharded_->wait();
  for (std::size_t gi = 0; gi < sweep_groups_.size(); ++gi) {
    const SweepGroup& g = sweep_groups_[gi];
    const std::vector<StackSweepSim>& sims =
        sharded_ ? sharded_->stack[gi] : g.shards;
    StackSweepSim::Totals totals;
    for (const StackSweepSim& shard : sims) shard.add_totals(totals);
    for (std::size_t j = 0; j < g.configs.size(); ++j) {
      out[g.where[j]] = sims.front().stats_from(totals, g.configs[j]);
    }
  }
  for (std::size_t gi = 0; gi < geom_groups_.size(); ++gi) {
    const GeomSweepGroup& g = geom_groups_[gi];
    const std::vector<NestedSweepSim>& sims =
        sharded_ ? sharded_->nested[gi] : g.shards;
    NestedSweepSim::Totals totals;
    for (const NestedSweepSim& shard : sims) shard.add_totals(totals);
    for (std::size_t j = 0; j < g.geoms.size(); ++j) {
      out[g.where[j]] = sims.front().stats_from(totals, g.geoms[j]);
    }
  }
  for (std::size_t i = 0; i < singleton_sims_.size(); ++i) {
    out[singleton_where_[i]] = singleton_sims_[i].stats();
  }
  for (std::size_t i = 0; i < geom_singleton_sims_.size(); ++i) {
    out[geom_singleton_where_[i]] = geom_singleton_sims_[i].stats();
  }
  if (sharded_ && metrics_enabled()) {
    std::uint64_t total = 0;
    std::uint64_t peak = 0;
    for (const std::uint64_t c : sharded_->shard_words) {
      total += c;
      peak = std::max(peak, c);
    }
    if (total > 0) {
      const double mean = static_cast<double>(total) / jobs_;
      std::cerr << "[sweep] shard imbalance: jobs=" << jobs_
                << " partitions=" << sharded_->parts << " max=" << peak
                << " mean=" << static_cast<std::uint64_t>(mean)
                << " max/mean=" << peak / mean << "\n";
    }
  }
  return out;
}

std::vector<CacheStats> measure_config_bank(
    std::span<const CacheConfig> configs, std::span<const TraceRecord> stream,
    const TimingParams& timing, ReplayEngine engine,
    std::vector<std::uint32_t>& packed_scratch) {
  const ReplayEngine resolved = resolve(engine);
  if (resolved == ReplayEngine::kReference) {
    // The reference bank keeps its historical record-major loop over the
    // raw (unpacked) addresses: no packing pass, and full addresses in
    // case a future geometry ever looks below bit 4.
    std::vector<CacheStats> stats(configs.size());
    std::vector<ConfigurableCache> bank;
    bank.reserve(configs.size());
    for (const CacheConfig& cfg : configs) bank.emplace_back(cfg, timing);
    for (const TraceRecord& r : stream) {
      const bool write = r.kind == AccessKind::kWrite;
      for (ConfigurableCache& cache : bank) cache.access(r.addr, write);
    }
    for (std::size_t i = 0; i < configs.size(); ++i) stats[i] = bank[i].stats();
    return stats;
  }

  // Decode/pack once; the packed engines stream the shared packed records
  // with their few-KB working state cache-resident. One whole-stream feed
  // through the accumulator is exactly the old one-shot bank sweep.
  pack_stream(stream, packed_scratch);
  BankAccumulator bank(configs, timing, resolved);
  bank.feed(packed_scratch);
  return bank.stats();
}

std::vector<CacheStats> measure_config_bank(
    std::span<const CacheConfig> configs, std::span<const TraceRecord> stream,
    const TimingParams& timing, ReplayEngine engine) {
  std::vector<std::uint32_t> packed;
  return measure_config_bank(configs, stream, timing, engine, packed);
}

std::vector<CacheStats> measure_geometry_bank(
    std::span<const CacheGeometry> geoms,
    std::span<const std::uint32_t> packed, const TimingParams& timing,
    ReplayEngine engine, unsigned sweep_jobs) {
  BankAccumulator bank(geoms, timing, engine, sweep_jobs);
  bank.feed(packed);
  return bank.stats();
}

std::vector<CacheStats> measure_geometry_bank(
    std::span<const CacheGeometry> geoms, std::span<const TraceRecord> stream,
    const TimingParams& timing, ReplayEngine engine, unsigned sweep_jobs) {
  // Sub-16 B-line geometries cannot replay the packed stream the
  // accumulator consumes; route them straight to the reference model over
  // the raw records and let the accumulator sweep the rest.
  std::vector<CacheGeometry> wide;
  std::vector<std::size_t> wide_where;
  std::vector<CacheStats> out(geoms.size());
  for (std::size_t i = 0; i < geoms.size(); ++i) {
    if (geoms[i].line_bytes >= 16) {
      wide.push_back(geoms[i]);
      wide_where.push_back(i);
    } else {
      CacheModel cache(geoms[i], timing);
      out[i] = replay(cache, stream);
    }
  }
  if (!wide.empty()) {
    const std::vector<std::uint32_t> packed = pack_stream(stream);
    const std::vector<CacheStats> stats =
        measure_geometry_bank(wide, packed, timing, engine, sweep_jobs);
    for (std::size_t j = 0; j < wide.size(); ++j) {
      out[wide_where[j]] = stats[j];
    }
  }
  return out;
}

}  // namespace stcache
