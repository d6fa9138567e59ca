// SpscQueue: the ring edges each side's cached cursor must get right (full,
// empty, wrap-around), an ordered two-thread stress, and the sharded
// engine's barrier case - two consumers serialized by a mutex draining one
// ring, which must still pop in ring order.
#include "common/spsc_queue.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

namespace ddos::common {
namespace {

TEST(SpscQueue, CapacityKeepsExactPowersAndRoundsUpOthers) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscQueue<int>(4).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(5).capacity(), 8u);
}

TEST(SpscQueue, FullEmptyAndWrapEdges) {
  SpscQueue<int> q(4);
  int out = -1;
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.TryPop(&out));

  int next_in = 0;
  int next_out = 0;
  // Many laps around a 4-slot ring, alternating fill-to-full and
  // drain-to-empty with partial steps in between, so both cached cursors
  // go stale and must be reloaded at exactly the full and empty edges.
  for (int lap = 0; lap < 50; ++lap) {
    while (q.SizeApprox() < q.capacity()) {
      int v = next_in;
      ASSERT_TRUE(q.TryPush(std::move(v)));
      ++next_in;
    }
    int rejected = next_in;
    EXPECT_FALSE(q.TryPush(std::move(rejected)));
    EXPECT_EQ(q.SizeApprox(), 4u);

    // Free one slot: the producer's cache still says full, so this push
    // only succeeds by reloading the consumer cursor.
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, next_out++);
    int v = next_in;
    ASSERT_TRUE(q.TryPush(std::move(v)));
    ++next_in;

    const std::size_t keep = static_cast<std::size_t>(lap % 3);
    while (q.SizeApprox() > keep) {
      ASSERT_TRUE(q.TryPop(&out));
      EXPECT_EQ(out, next_out++);
    }
    if (keep == 0) {
      EXPECT_TRUE(q.Empty());
      EXPECT_FALSE(q.TryPop(&out));
    }
  }
  while (q.TryPop(&out)) EXPECT_EQ(out, next_out++);
  EXPECT_EQ(next_out, next_in);
  EXPECT_TRUE(q.Empty());
}

TEST(SpscQueue, FailedPushLeavesValueIntact) {
  SpscQueue<std::unique_ptr<int>> q(1);
  ASSERT_TRUE(q.TryPush(std::make_unique<int>(1)));
  auto second = std::make_unique<int>(2);
  EXPECT_FALSE(q.TryPush(std::move(second)));
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(*second, 2);
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(*out, 1);
  EXPECT_TRUE(q.TryPush(std::move(second)));
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_EQ(*out, 2);
}

constexpr std::uint64_t kStressItems = 1'000'000;

void ProduceSequence(SpscQueue<std::uint64_t>* q) {
  for (std::uint64_t i = 0; i < kStressItems; ++i) {
    std::uint64_t v = i;
    while (!q->TryPush(std::move(v))) std::this_thread::yield();
  }
}

TEST(SpscQueue, TwoThreadStressKeepsOrder) {
  SpscQueue<std::uint64_t> q(64);
  std::thread producer(ProduceSequence, &q);
  std::uint64_t expected = 0;
  std::uint64_t out = 0;
  bool in_order = true;
  while (expected < kStressItems) {
    if (!q.TryPop(&out)) {
      std::this_thread::yield();
      continue;
    }
    in_order = in_order && out == expected;
    ++expected;
  }
  producer.join();
  EXPECT_TRUE(in_order);
  EXPECT_TRUE(q.Empty());
}

// The sharded engine's worker and its drain barrier both consume one ring,
// each only while holding the shard mutex. Pops then stay in ring order
// across the two threads, and nothing is lost or seen twice.
TEST(SpscQueue, MutexSerializedConsumersDrainInOrder) {
  SpscQueue<std::uint64_t> q(64);
  std::mutex mutex;
  std::uint64_t expected = 0;  // guarded by mutex
  bool in_order = true;        // guarded by mutex
  std::uint64_t popped[2] = {0, 0};

  auto consume = [&](int id, std::size_t batch) {
    for (;;) {
      std::size_t got = 0;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (expected == kStressItems) return;
        std::uint64_t out = 0;
        for (; got < batch && q.TryPop(&out); ++got) {
          in_order = in_order && out == expected;
          ++expected;
        }
      }
      popped[id] += got;
      if (got == 0) std::this_thread::yield();
    }
  };
  std::thread producer(ProduceSequence, &q);
  std::thread worker(consume, 0, 16);
  consume(1, 5);
  worker.join();
  producer.join();

  EXPECT_TRUE(in_order);
  EXPECT_EQ(popped[0] + popped[1], kStressItems);
  EXPECT_TRUE(q.Empty());
}

}  // namespace
}  // namespace ddos::common
