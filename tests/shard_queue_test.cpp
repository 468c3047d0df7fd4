// Tests of the multi-tenant sharded session queues (trace/shard.hpp): the
// fixed chunk pool's blocking/recycling discipline, round-robin shard
// pinning, per-session FIFO under many concurrent producers, cross-session
// fairness within a shard, per-session budget backpressure, and the
// poison/abandon isolation paths. The multi-producer tests are the ones
// repro.sh runs under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "trace/shard.hpp"
#include "util/error.hpp"

namespace stcache {
namespace {

PooledChunk make_chunk(ChunkPool& pool, std::uint32_t tag) {
  PooledChunk c = pool.acquire();
  c.words[0] = tag;
  c.count = 1;
  return c;
}

// --- ChunkPool --------------------------------------------------------------

TEST(ChunkPool, RecyclesBuffersWithoutReallocating) {
  ChunkPool pool(2, 32);
  PooledChunk a = pool.acquire();
  const std::uint32_t* storage = a.words.data();
  EXPECT_EQ(a.words.size(), 32u);
  pool.release(std::move(a));
  PooledChunk b = pool.acquire();
  EXPECT_EQ(b.words.data(), storage);  // same buffer came back
  EXPECT_EQ(b.count, 0u);
  pool.release(std::move(b));
  EXPECT_EQ(pool.available(), 2u);
}

TEST(ChunkPool, ExhaustionBlocksAcquireUntilRelease) {
  ChunkPool pool(1, 16);
  PooledChunk held = pool.acquire();
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    PooledChunk c = pool.acquire();
    acquired = true;
    pool.release(std::move(c));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(acquired.load());  // pool is dry: acquire() must block
  pool.release(std::move(held));
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(ChunkPool, ShutdownUnblocksAcquireWithError) {
  ChunkPool pool(1, 16);
  PooledChunk held = pool.acquire();
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.shutdown();
  });
  EXPECT_THROW(pool.acquire(), Error);
  stopper.join();
  pool.release(std::move(held));
}

// --- session registry -------------------------------------------------------

TEST(ShardQueue, SessionsPinToShardsRoundRobin) {
  ChunkPool pool(4, 16);
  ShardedSessionQueues q(3, pool, 2);
  const std::uint64_t a = q.open_session();
  const std::uint64_t b = q.open_session();
  const std::uint64_t c = q.open_session();
  const std::uint64_t d = q.open_session();
  EXPECT_EQ(q.shard_of(a), 0u);
  EXPECT_EQ(q.shard_of(b), 1u);
  EXPECT_EQ(q.shard_of(c), 2u);
  EXPECT_EQ(q.shard_of(d), 0u);  // wraps
  EXPECT_EQ(q.sessions_open(), 4u);
  EXPECT_EQ(q.state(a), SessionState::kStreaming);
  EXPECT_EQ(q.state(std::uint64_t{999}), SessionState::kClosed);
}

// A new session goes to the least-loaded shard, not the next in rotation:
// once B closes, C must not queue behind A while B's worker idles.
TEST(ShardQueue, NewSessionAvoidsBusyShard) {
  ChunkPool pool(4, 16);
  ShardedSessionQueues q(2, pool, 2);
  const std::uint64_t a = q.open_session();
  const std::uint64_t b = q.open_session();
  ASSERT_NE(q.shard_of(a), q.shard_of(b));
  q.close_session(b);
  const std::uint64_t c = q.open_session();
  EXPECT_NE(q.shard_of(c), q.shard_of(a));
  // A delivered (done) session no longer loads its shard either.
  ASSERT_TRUE(q.finish(c));
  ShardedSessionQueues::Item item;
  ASSERT_TRUE(q.pop(q.shard_of(c), item));
  q.mark_done(c);
  q.release(std::move(item));
  const std::uint64_t d = q.open_session();
  EXPECT_NE(q.shard_of(d), q.shard_of(a));
}

TEST(ShardQueue, FinishQueuesPoolFreeMarker) {
  ChunkPool pool(2, 16);
  ShardedSessionQueues q(1, pool, 2);
  const std::uint64_t s = q.open_session();
  ASSERT_TRUE(q.finish(s));
  EXPECT_EQ(q.state(s), SessionState::kFinishing);
  EXPECT_FALSE(q.finish(s));  // only once
  ShardedSessionQueues::Item item;
  ASSERT_TRUE(q.pop(0, item));
  EXPECT_TRUE(item.fin);
  EXPECT_TRUE(item.chunk.words.empty());  // fin holds no pool buffer
  q.mark_done(s);
  EXPECT_EQ(q.state(s), SessionState::kDone);
  q.release(std::move(item));
  EXPECT_EQ(pool.available(), 2u);
}

// --- ordering and fairness --------------------------------------------------

TEST(ShardQueue, MultiProducerPerSessionFifo) {
  ChunkPool pool(8, 16);
  ShardedSessionQueues q(2, pool, 2);
  constexpr int kProducers = 4;
  constexpr std::uint32_t kChunks = 32;
  std::vector<std::uint64_t> ids;
  for (int p = 0; p < kProducers; ++p) ids.push_back(q.open_session());

  std::atomic<int> fifo_violations{0};
  std::atomic<int> fins{0};
  std::vector<std::thread> consumers;
  for (std::size_t shard = 0; shard < q.num_shards(); ++shard) {
    consumers.emplace_back([&, shard] {
      // Each session is pinned to one shard, so this thread sees every
      // chunk of its sessions, in push order.
      std::unordered_map<std::uint64_t, std::uint32_t> next;
      ShardedSessionQueues::Item item;
      while (q.pop(shard, item)) {
        if (item.fin) {
          ++fins;
        } else {
          if (item.chunk.words[0] != next[item.session]) ++fifo_violations;
          next[item.session] = item.chunk.words[0] + 1;
        }
        q.release(std::move(item));
      }
    });
  }

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint32_t i = 0; i < kChunks; ++i) {
        EXPECT_TRUE(q.push(ids[p], make_chunk(pool, i)));
      }
      EXPECT_TRUE(q.finish(ids[p]));
    });
  }
  for (std::thread& t : producers) t.join();
  q.shutdown();  // consumers drain what is queued, then exit
  for (std::thread& t : consumers) t.join();

  EXPECT_EQ(fins.load(), kProducers);
  EXPECT_EQ(fifo_violations.load(), 0);
}

TEST(ShardQueue, RoundRobinAcrossSessionsWithinShard) {
  ChunkPool pool(16, 16);
  ShardedSessionQueues q(1, pool, 8);
  const std::uint64_t a = q.open_session();
  const std::uint64_t b = q.open_session();
  for (std::uint32_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.push(a, make_chunk(pool, 'a')));
    ASSERT_TRUE(q.push(b, make_chunk(pool, 'b')));
  }
  // One greedy session must not starve the other: the worker alternates.
  std::string order;
  ShardedSessionQueues::Item item;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.pop(0, item));
    order += static_cast<char>(item.chunk.words[0]);
    q.release(std::move(item));
  }
  EXPECT_EQ(order, "ababab");
}

// --- backpressure -----------------------------------------------------------

TEST(ShardQueue, BudgetBackpressureBlocksProducer) {
  ChunkPool pool(8, 16);
  ShardedSessionQueues q(1, pool, 1);
  const std::uint64_t s = q.open_session();
  ASSERT_TRUE(q.push(s, make_chunk(pool, 0)));

  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(s, make_chunk(pool, 1)));
    second_pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_pushed.load());  // budget of 1 already in flight

  ShardedSessionQueues::Item item;
  ASSERT_TRUE(q.pop(0, item));
  q.release(std::move(item));  // credits the budget
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  ASSERT_TRUE(q.pop(0, item));
  q.release(std::move(item));
}

// --- isolation paths --------------------------------------------------------

TEST(ShardQueue, AbandonPurgesChunksAndUnblocksProducer) {
  ChunkPool pool(4, 16);
  ShardedSessionQueues q(1, pool, 1);
  const std::uint64_t s = q.open_session();
  ASSERT_TRUE(q.push(s, make_chunk(pool, 0)));

  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result = q.push(s, make_chunk(pool, 1));  // blocks on the budget
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  q.abandon(s);
  producer.join();
  EXPECT_FALSE(push_result.load());  // rejected, chunk recycled
  EXPECT_EQ(q.state(s), SessionState::kAbandoned);
  EXPECT_EQ(pool.available(), 4u);  // queued + rejected chunks all returned
}

TEST(ShardQueue, PoisonRefusesFurtherTraffic) {
  ChunkPool pool(4, 16);
  ShardedSessionQueues q(1, pool, 4);
  const std::uint64_t bad = q.open_session();
  const std::uint64_t good = q.open_session();
  ASSERT_TRUE(q.push(bad, make_chunk(pool, 0)));
  q.poison(bad);
  EXPECT_EQ(q.state(bad), SessionState::kPoisoned);
  EXPECT_FALSE(q.push(bad, make_chunk(pool, 1)));
  EXPECT_FALSE(q.finish(bad));

  // The sibling session on the same shard is untouched.
  ASSERT_TRUE(q.push(good, make_chunk(pool, 7)));
  ShardedSessionQueues::Item item;
  ASSERT_TRUE(q.pop(0, item));
  EXPECT_EQ(item.session, good);  // the poisoned session's chunk was purged
  EXPECT_EQ(item.chunk.words[0], 7u);
  q.release(std::move(item));
  EXPECT_EQ(q.state(good), SessionState::kStreaming);
  q.close_session(bad);
  EXPECT_EQ(q.state(bad), SessionState::kClosed);
  EXPECT_EQ(pool.available(), 4u);
}

TEST(ChunkPool, AcquireUntilTimesOutOnADryPool) {
  ChunkPool pool(1, 16);
  PooledChunk held = pool.acquire();  // the pool is now dry
  PooledChunk out;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(pool.acquire_until(
      t0 + std::chrono::milliseconds(50), out));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(40));
  // A released buffer satisfies the next bounded acquire immediately.
  pool.release(std::move(held));
  EXPECT_TRUE(pool.acquire_until(
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1'000),
      out));
  pool.release(std::move(out));
}

TEST(ChunkPool, AcquireUntilStillThrowsAfterShutdown) {
  ChunkPool pool(1, 16);
  pool.shutdown();
  PooledChunk out;
  EXPECT_THROW(pool.acquire_until(std::chrono::steady_clock::now() +
                                      std::chrono::milliseconds(100),
                                  out),
               Error);
}

TEST(ShardQueue, PushUntilTimesOutWhenTheBudgetStaysSaturated) {
  ChunkPool pool(4, 16);
  ShardedSessionQueues q(1, pool, /*session_budget=*/1);
  const std::uint64_t s = q.open_session();
  ASSERT_TRUE(q.push(s, make_chunk(pool, 1)));  // budget now saturated
  const std::size_t before = pool.available();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  EXPECT_EQ(q.push_until(s, make_chunk(pool, 2), deadline),
            ShardedSessionQueues::PushResult::kTimedOut);
  // The refused chunk went straight back to the pool, not into limbo.
  EXPECT_EQ(pool.available(), before);

  // Draining the worker side frees the budget; the next bounded push lands.
  ShardedSessionQueues::Item item;
  ASSERT_TRUE(q.pop(0, item));
  q.release(std::move(item));
  EXPECT_EQ(q.push_until(s, make_chunk(pool, 3),
                         std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(1'000)),
            ShardedSessionQueues::PushResult::kAccepted);
}

TEST(ShardQueue, PushUntilReportsRefusalDistinctFromTimeout) {
  ChunkPool pool(4, 16);
  ShardedSessionQueues q(1, pool, 4);
  const std::uint64_t s = q.open_session();
  q.poison(s);  // the session stopped accepting: refusal, not a timeout
  EXPECT_EQ(q.push_until(s, make_chunk(pool, 1),
                         std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(1'000)),
            ShardedSessionQueues::PushResult::kRefused);
}

TEST(ShardQueue, ShutdownDrainsThenStopsConsumers) {
  ChunkPool pool(4, 16);
  ShardedSessionQueues q(1, pool, 4);
  const std::uint64_t s = q.open_session();
  ASSERT_TRUE(q.push(s, make_chunk(pool, 1)));
  ASSERT_TRUE(q.push(s, make_chunk(pool, 2)));
  q.shutdown();
  EXPECT_FALSE(q.push(s, make_chunk(pool, 3)));
  ShardedSessionQueues::Item item;
  ASSERT_TRUE(q.pop(0, item));  // queued work is still delivered
  q.release(std::move(item));
  ASSERT_TRUE(q.pop(0, item));
  q.release(std::move(item));
  EXPECT_FALSE(q.pop(0, item));  // drained: consumers exit
}

}  // namespace
}  // namespace stcache
