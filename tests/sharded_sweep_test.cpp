// Determinism suite for the set-partitioned parallel oneshot sweep
// (trace/replay.hpp, BankAccumulator sweep_jobs).
//
// The parallel sweep is only allowed to exist because its merge is EXACT:
// for any shard count, any feed chunking, and either SIMD flavor, the
// bank's stats() must be bit-identical — every CacheStats counter — to
// the serial sweep of the same stream. The partition key (bits 2..6 of
// the 16 B block number) is a whole-set split for every one of the 27
// configurations, so each shard replays a closed sub-trace and the
// per-group Totals add without interaction; these tests enforce that
// claim on real workload streams (instruction AND data sides) and on
// adversarial synthetics chosen to stress the scatter (single-partition
// strided scans, pointer chases, tight loops).
//
// Partition-count variation (STCACHE_SWEEP_PARTITIONS) cannot be covered
// in-process — sweep_partitions() is resolved once per process — so
// repro.sh cmp's stcache_tune output across partition counts at the CLI
// level; here the count is asserted sane and jobs are clamped against it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/config.hpp"
#include "cache/fast_cache.hpp"
#include "cache/stack_sweep.hpp"
#include "core/scaled_space.hpp"
#include "trace/replay.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace stcache {
namespace {

constexpr std::size_t kMaxRecords = 120'000;

// Packed split streams of a captured workload, cached across tests.
struct PackedWorkload {
  std::vector<std::uint32_t> ifetch;
  std::vector<std::uint32_t> data;
};

const PackedWorkload& packed_workload(const std::string& name) {
  static auto* cache = new std::map<std::string, PackedWorkload>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    Trace t = capture_trace(find_workload(name));
    if (t.size() > kMaxRecords) t.resize(kMaxRecords);
    const SplitTrace split = split_trace(t);
    PackedWorkload p;
    pack_stream(split.ifetch, p.ifetch);
    pack_stream(split.data, p.data);
    it = cache->emplace(name, std::move(p)).first;
  }
  return it->second;
}

std::vector<std::uint32_t> pack(const Trace& t) {
  std::vector<std::uint32_t> out;
  pack_stream(t, out);
  return out;
}

// Serial ground truth: one bank, jobs = 1, single feed.
std::vector<CacheStats> serial_stats(std::span<const std::uint32_t> packed) {
  BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, 1);
  bank.feed(packed);
  return bank.stats();
}

void expect_sharded_identical(std::span<const std::uint32_t> packed,
                              const std::string& stream_name) {
  const std::vector<CacheStats> serial = serial_stats(packed);
  // 7 exercises uneven partition ownership (32 partitions split 5/5/5/5/4/4/4).
  for (const unsigned jobs : {2u, 4u, 7u, 32u}) {
    BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, jobs);
    bank.feed(packed);
    const std::vector<CacheStats> sharded = bank.stats();
    ASSERT_EQ(sharded.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i], serial[i])
          << stream_name << " x " << all_configs()[i].name() << " jobs="
          << jobs << " (effective " << bank.sweep_jobs() << ")";
    }
  }
}

TEST(ShardedSweep, PartitionCountIsSanePowerOfTwo) {
  const unsigned p = sweep_partitions();
  EXPECT_GE(p, 1u);
  EXPECT_LE(p, 32u);
  EXPECT_EQ(p & (p - 1), 0u) << "partition count must be a power of two";
}

TEST(ShardedSweep, JobsClampToPartitions) {
  const PackedWorkload& w = packed_workload("crc");
  BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, 1000);
  EXPECT_LE(bank.sweep_jobs(), sweep_partitions());
  bank.feed(w.ifetch);
  const std::vector<CacheStats> sharded = bank.stats();
  const std::vector<CacheStats> serial = serial_stats(w.ifetch);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(sharded[i], serial[i]) << all_configs()[i].name();
  }
}

TEST(ShardedSweep, DefaultIsSerial) {
  // Neither set_default_sweep_jobs nor STCACHE_SWEEP_JOBS is in play here,
  // so a default-constructed bank must not spawn a pool.
  BankAccumulator bank(all_configs());
  EXPECT_EQ(bank.sweep_jobs(), 1u);
}

TEST(ShardedSweep, SetDefaultSweepJobsIsPickedUp) {
  set_default_sweep_jobs(4);
  BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot);
  EXPECT_EQ(bank.sweep_jobs(), std::min(4u, sweep_partitions()));
  set_default_sweep_jobs(0);  // back to the environment default
  BankAccumulator serial(all_configs(), {}, ReplayEngine::kOneshot);
  EXPECT_EQ(serial.sweep_jobs(), 1u);
}

TEST(ShardedSweep, WorkloadIFetchStreams) {
  for (const std::string name : {"crc", "bcnt", "ucbqsort"}) {
    expect_sharded_identical(packed_workload(name).ifetch, name + " I");
  }
}

TEST(ShardedSweep, WorkloadDataStreams) {
  for (const std::string name : {"crc", "bcnt", "ucbqsort"}) {
    expect_sharded_identical(packed_workload(name).data, name + " D");
  }
}

// Streaming pipeline shape: many small uneven chunks, sharded, must equal
// one serial feed of the concatenation (chunk boundaries never align with
// partition or line boundaries).
TEST(ShardedSweep, ChunkedFeedMatchesSingleFeed) {
  const PackedWorkload& w = packed_workload("ucbqsort");
  const std::span<const std::uint32_t> packed = w.ifetch;
  const std::vector<CacheStats> serial = serial_stats(packed);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{37},
                                  std::size_t{4096}, std::size_t{65'536}}) {
    BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, 4);
    for (std::size_t off = 0; off < packed.size(); off += chunk) {
      bank.feed(packed.subspan(off, std::min(chunk, packed.size() - off)));
    }
    EXPECT_EQ(bank.words_fed(), packed.size());
    const std::vector<CacheStats> sharded = bank.stats();
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i], serial[i])
          << "chunk=" << chunk << " x " << all_configs()[i].name();
    }
  }
}

// Both SIMD flavors, serial and sharded, must agree exactly.
TEST(ShardedSweep, SimdFlavorsIdentical) {
  const PackedWorkload& w = packed_workload("bcnt");
  set_stack_sweep_simd(false);
  const std::vector<CacheStats> scalar_serial = serial_stats(w.ifetch);
  expect_sharded_identical(w.ifetch, "bcnt I scalar");
  set_stack_sweep_simd(true);
  expect_sharded_identical(w.ifetch, "bcnt I simd");
  const std::vector<CacheStats> simd_serial = serial_stats(w.ifetch);
  for (std::size_t i = 0; i < scalar_serial.size(); ++i) {
    EXPECT_EQ(scalar_serial[i], simd_serial[i]) << all_configs()[i].name();
  }
}

TEST(ShardedSweep, AdversarialSynthetics) {
  Rng rng(0x5EED5EED);
  std::vector<std::pair<std::string, Trace>> streams;
  // Uniform thrash: working set 8x the largest cache, heavy write-backs.
  streams.emplace_back(
      "uniform64k", gen_uniform(0x10000, 64 * 1024, kMaxRecords, 0.30, rng));
  // 64 B-stride write scan: every access lands in a new line but a single
  // scatter class per 128 B — maximal shard imbalance.
  streams.emplace_back("strided64",
                       gen_strided(0x2000, 64, kMaxRecords / 2, 0.5, rng));
  // Pointer chase: temporal reuse, no spatial locality.
  streams.emplace_back(
      "chase32k",
      gen_pointer_chase(0x8000, 32 * 1024, 16, kMaxRecords / 2, rng));
  // Tight fetch loop: lives on the repeat fast path inside one partition.
  streams.emplace_back("loop4k", gen_loop_ifetch(0x400, 4096, 100));
  for (const auto& [name, trace] : streams) {
    expect_sharded_identical(pack(trace), name);
  }
}

// Scaled (generic-geometry) banks shard too: the partition key is derived
// from the family's line sizes and narrowest set-index span, so any shard
// count must stay bit-identical to the serial generalized traversal — on
// both stream sides, under uneven job counts, and with chunked feeding.
TEST(ShardedSweep, ScaledBankShardsBitIdentical) {
  const ScaledSpace space = ScaledSpace::embedded_32k();
  const std::vector<CacheGeometry>& geoms = space.configs();
  for (const std::string name : {"crc", "ucbqsort"}) {
    const PackedWorkload& w = packed_workload(name);
    for (const auto* stream : {&w.ifetch, &w.data}) {
      const std::span<const std::uint32_t> packed = *stream;
      BankAccumulator serial_bank(geoms, {}, ReplayEngine::kOneshot, 1);
      serial_bank.feed(packed);
      const std::vector<CacheStats> serial = serial_bank.stats();
      for (const unsigned jobs : {2u, 3u, 4u}) {
        BankAccumulator bank(geoms, {}, ReplayEngine::kOneshot, jobs);
        // Chunked feed: boundaries never align with partitions.
        const std::size_t chunk = 4097;
        for (std::size_t off = 0; off < packed.size(); off += chunk) {
          bank.feed(packed.subspan(off, std::min(chunk, packed.size() - off)));
        }
        const std::vector<CacheStats> sharded = bank.stats();
        ASSERT_EQ(sharded.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
          EXPECT_EQ(sharded[i], serial[i])
              << name << " x " << geometry_name(geoms[i]) << " jobs=" << jobs
              << " (effective " << bank.sweep_jobs() << ")";
        }
      }
    }
  }
}

// Degenerate feeds: empty, single record, fewer records than partitions.
TEST(ShardedSweep, TinyStreams) {
  const std::vector<CacheConfig>& configs = all_configs();
  {
    BankAccumulator bank(configs, {}, ReplayEngine::kOneshot, 4);
    bank.feed({});
    const std::vector<CacheStats> stats = bank.stats();
    for (const CacheStats& s : stats) EXPECT_EQ(s.accesses, 0u);
  }
  std::vector<std::uint32_t> tiny;
  for (std::uint32_t i = 0; i < 9; ++i) {
    tiny.push_back(i * 5u);  // spread over several partitions
  }
  for (std::size_t n : {std::size_t{1}, tiny.size()}) {
    const std::span<const std::uint32_t> s(tiny.data(), n);
    const std::vector<CacheStats> serial = serial_stats(s);
    BankAccumulator bank(configs, {}, ReplayEngine::kOneshot, 32);
    bank.feed(s);
    const std::vector<CacheStats> sharded = bank.stats();
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i], serial[i]) << "n=" << n;
    }
  }
}

// The imbalance metric is stderr-only, opt-in, and only for jobs > 1.
TEST(ShardedSweep, ImbalanceMetricBehindMetricsFlag) {
  const PackedWorkload& w = packed_workload("crc");
  const bool was = metrics_enabled();

  set_metrics_enabled(false);
  {
    BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, 4);
    bank.feed(w.ifetch);
    testing::internal::CaptureStderr();
    bank.stats();
    EXPECT_EQ(testing::internal::GetCapturedStderr().find("shard imbalance"),
              std::string::npos);
  }

  set_metrics_enabled(true);
  {
    BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, 4);
    bank.feed(w.ifetch);
    testing::internal::CaptureStderr();
    bank.stats();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("[sweep] shard imbalance"), std::string::npos) << err;
    EXPECT_NE(err.find("jobs=" + std::to_string(bank.sweep_jobs())),
              std::string::npos)
        << err;
  }
  {
    // Serial bank: no imbalance line even with metrics on.
    BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, 1);
    bank.feed(w.ifetch);
    testing::internal::CaptureStderr();
    bank.stats();
    EXPECT_EQ(testing::internal::GetCapturedStderr().find("shard imbalance"),
              std::string::npos);
  }
  set_metrics_enabled(was);
}

// A stream confined to one set partition: its three line-size traversals
// are three (group, partition) items, owned by shards p, p+1 and p+2, so
// at 4 jobs the per-shard word counts are N, N, N, 0 and max/mean = 4/3
// (a partition-owned split would put all 3N words on one shard: 4.0).
TEST(ShardedSweep, OnePartitionStreamSpreadsGroupsAcrossShards) {
  if (sweep_partitions() < 4) GTEST_SKIP() << "needs >= 4 partitions";
  std::vector<std::uint32_t> packed;
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    // Bits 2..6 of the block number (the partition key) stay zero.
    const std::uint32_t block = ((i * 2654435761u) % 4096u) << 7 | (i & 3u);
    packed.push_back(block | (i % 5 == 0 ? FastCacheSim::kPackedWriteBit : 0));
  }
  const bool was = metrics_enabled();
  set_metrics_enabled(true);
  BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, 4);
  ASSERT_EQ(bank.sweep_jobs(), 4u);
  bank.feed(packed);
  testing::internal::CaptureStderr();
  const std::vector<CacheStats> sharded = bank.stats();
  const std::string err = testing::internal::GetCapturedStderr();
  set_metrics_enabled(was);
  const std::size_t at = err.find("max/mean=");
  ASSERT_NE(err.find("[sweep] shard imbalance"), std::string::npos) << err;
  ASSERT_NE(at, std::string::npos) << err;
  EXPECT_LE(std::stod(err.substr(at + 9)), 4.0 / 3.0 + 1e-4) << err;
  const std::vector<CacheStats> serial = serial_stats(packed);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(sharded[i], serial[i]) << all_configs()[i].name();
  }
}

// feed() returns while the shard replays still run; they must work on the
// bank's own copy of the words. Clobbering the caller's buffer right after
// every feed must leave the stats bit-identical to serial.
TEST(ShardedSweep, PipelinedFeedCopiesCallerBuffer) {
  const std::vector<std::uint32_t>& words = packed_workload("ucbqsort").data;
  const std::vector<CacheStats> serial = serial_stats(words);
  const std::size_t chunk = 8191;
  for (const unsigned jobs : {2u, 4u, 7u}) {
    BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, jobs);
    std::vector<std::uint32_t> buffer;
    for (std::size_t off = 0; off < words.size(); off += chunk) {
      const std::size_t n = std::min(chunk, words.size() - off);
      buffer.assign(words.begin() + off, words.begin() + off + n);
      bank.feed(buffer);
      std::fill(buffer.begin(), buffer.end(), 0xFFFF'FFFFu);
    }
    const std::vector<CacheStats> sharded = bank.stats();
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(sharded[i], serial[i])
          << "jobs=" << jobs << " x " << all_configs()[i].name();
    }
  }
}

// Destroying a bank, or move-assigning over it, while its replays are in
// flight waits for them (TSan and ASan would flag a replay touching freed
// state).
TEST(ShardedSweep, DestroyWithReplaysInFlight) {
  const PackedWorkload& w = packed_workload("ucbqsort");
  for (const unsigned jobs : {2u, 4u}) {
    BankAccumulator bank(all_configs(), {}, ReplayEngine::kOneshot, jobs);
    bank.feed(w.ifetch);
  }
  BankAccumulator target(all_configs(), {}, ReplayEngine::kOneshot, 4);
  target.feed(w.data);
  BankAccumulator source(all_configs(), {}, ReplayEngine::kOneshot, 4);
  source.feed(w.ifetch);
  target = std::move(source);
  const std::vector<CacheStats> moved = target.stats();
  const std::vector<CacheStats> serial = serial_stats(w.ifetch);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(moved[i], serial[i]) << all_configs()[i].name();
  }
}

// Moved-from/moved-to banks keep working (the pool and scratch move too,
// with the first half's replays still in flight at the move).
TEST(ShardedSweep, MoveSemantics) {
  const PackedWorkload& w = packed_workload("crc");
  const std::vector<CacheStats> serial = serial_stats(w.ifetch);
  BankAccumulator a(all_configs(), {}, ReplayEngine::kOneshot, 4);
  a.feed(std::span<const std::uint32_t>(w.ifetch.data(), w.ifetch.size() / 2));
  BankAccumulator b = std::move(a);
  b.feed(std::span<const std::uint32_t>(w.ifetch)
             .subspan(w.ifetch.size() / 2));
  const std::vector<CacheStats> moved = b.stats();
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(moved[i], serial[i]) << all_configs()[i].name();
  }
}

}  // namespace
}  // namespace stcache
