// Unit tests of the benchmark's own measurement helpers.
//
//   python3 ingest_bench/run.py --selftest
#include "support.h"

#include <sys/mman.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

namespace ddos::ingest_bench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, ReadsNearestRank) {
  EXPECT_DOUBLE_EQ(Percentile(Ramp(1000), 0.99), 990.0);
  EXPECT_DOUBLE_EQ(Percentile(Ramp(100), 0.90), 90.0);
  EXPECT_DOUBLE_EQ(Percentile(Ramp(20), 0.5), 10.0);
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_NO_THROW(Percentile(Ramp(1000), 0.99));
  EXPECT_THROW(Percentile(Ramp(999), 0.99), InsufficientSamples);
  EXPECT_NO_THROW(Percentile(Ramp(100), 0.90));
  EXPECT_THROW(Percentile(Ramp(99), 0.90), InsufficientSamples);
  EXPECT_THROW(Percentile(Ramp(19), 0.5), InsufficientSamples);
  EXPECT_THROW(Percentile({}, 0.5), InsufficientSamples);
  EXPECT_THROW(Percentile(Ramp(10), 1.5), std::invalid_argument);
}

TEST(Percentile, MedianOfEvenAndOdd) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(Median({}), InsufficientSamples);
}

TEST(OpenLoopSchedule, DueTimesFollowTheRateNotTheSender) {
  const Clock::time_point t0 = Clock::now();
  OpenLoopSchedule schedule(1000.0, std::chrono::milliseconds(1), t0);
  EXPECT_EQ(schedule.DueTime(0), t0);
  EXPECT_NEAR(MillisBetween(t0, schedule.DueTime(250)), 250.0, 1e-6);
  EXPECT_EQ(schedule.DueCount(t0 - std::chrono::milliseconds(1), 100), 0u);
  EXPECT_EQ(schedule.DueCount(t0, 100), 1u);
  EXPECT_EQ(schedule.DueCount(t0 + std::chrono::microseconds(9500), 100), 10u);
  // A sender that wakes late owes every row due meanwhile, capped at total.
  EXPECT_EQ(schedule.DueCount(t0 + std::chrono::seconds(5), 100), 100u);
}

TEST(OpenLoopSchedule, LatenessIsMeasuredFromTheTickNotTheRow) {
  const Clock::time_point t0 = Clock::now();
  OpenLoopSchedule schedule(1000.0, std::chrono::microseconds(500), t0);
  schedule.NoteWake(0, t0 + std::chrono::microseconds(100));
  schedule.NoteWake(4, t0 + std::chrono::microseconds(2000 + 250));
  schedule.NoteWake(6, t0 + std::chrono::microseconds(2900));  // early
  ASSERT_EQ(schedule.lateness_ms().size(), 3u);
  EXPECT_NEAR(schedule.lateness_ms()[0], 0.1, 1e-9);
  EXPECT_NEAR(schedule.lateness_ms()[1], 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(schedule.lateness_ms()[2], 0.0);
}

TEST(OpenLoopSchedule, AckNumbersMapToRoundRobinRows) {
  // Three connections: rows 0,3,6.. on conn 0; `ACK 2` on conn 1 is row 4.
  EXPECT_EQ(OpenLoopSchedule::GlobalIndex(0, 1, 3), 0u);
  EXPECT_EQ(OpenLoopSchedule::GlobalIndex(1, 2, 3), 4u);
  EXPECT_EQ(OpenLoopSchedule::GlobalIndex(2, 64, 3), 191u);
}

TEST(MetricName, AcceptsOnlyTheNameAlphabet) {
  EXPECT_TRUE(IsValidMetricName("records_per_s"));
  EXPECT_TRUE(IsValidMetricName("stream.view_merge_ms_p50"));
  EXPECT_TRUE(IsValidMetricName("9-lives"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("_leading"));
  EXPECT_FALSE(IsValidMetricName(".leading"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("slash/unit"));
  EXPECT_FALSE(IsValidMetricName("quote\""));
  EXPECT_TRUE(IsValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(IsValidMetricName(std::string(65, 'a')));
}

TEST(ResultLine, RendersAndRejectsBadMetrics) {
  const std::string line = RenderResultLine(
      true, 10, 0, {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
  EXPECT_THROW(RenderResultLine(true, 1, 0, {{"a b", 1.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(RenderResultLine(true, 1, 0, {{"x", 1.0, "s"}, {"x", 2.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(RenderResultLine(true, 1, 0, {{"x", 0.0 / 0.0, "s"}}),
               std::invalid_argument);
}

TEST(CpuAttribution, ChargesEachThreadItsOwnWork) {
  const std::vector<int> before = ListThreadIds();
  std::atomic<int> busy_tid{0}, idle_tid{0};
  std::atomic<bool> release{false};
  std::atomic<int> ready{0};
  std::thread busy([&] {
    busy_tid = ThisThreadId();
    ++ready;
    const double start = ThreadCpuSeconds(ThisThreadId());
    volatile std::uint64_t x = 1;
    while (ThreadCpuSeconds(ThisThreadId()) - start < 0.08) x = x * 6364136223846793005ull + 1;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  std::thread idle([&] {
    idle_tid = ThisThreadId();
    ++ready;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  while (ready < 2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::vector<int> fresh = NewThreadIds(before, ListThreadIds());
  EXPECT_EQ(fresh.size(), 2u);
  EXPECT_NE(std::find(fresh.begin(), fresh.end(), busy_tid.load()), fresh.end());
  EXPECT_NE(std::find(fresh.begin(), fresh.end(), idle_tid.load()), fresh.end());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const double busy_cpu = ThreadCpuSeconds(busy_tid);
  const double idle_cpu = ThreadCpuSeconds(idle_tid);
  const double process_cpu = ProcessCpuSeconds();
  release = true;
  busy.join();
  idle.join();
  EXPECT_GE(busy_cpu, 0.08);
  EXPECT_LT(idle_cpu, 0.02);
  EXPECT_GE(process_cpu, busy_cpu + idle_cpu);
  // An exited thread has no clock left to read.
  EXPECT_LT(ThreadCpuSeconds(busy_tid), 0.0);
}

TEST(CpuAttribution, StealShareComesFromTheStealColumn) {
  const HostCpuTimes a = ParseHostCpuTimes("cpu  700 0 100 2000 0 0 100 100 50 0\nintr 1");
  EXPECT_EQ(a.total, 3000u);
  EXPECT_EQ(a.steal, 100u);
  const HostCpuTimes b = ParseHostCpuTimes("cpu  800 0 100 2600 0 0 100 400 90 0");
  EXPECT_DOUBLE_EQ(StealShare(a, b), 0.3);
  EXPECT_DOUBLE_EQ(StealShare(a, a), 0.0);
  EXPECT_EQ(ParseHostCpuTimes("cpu0 1 2 3").total, 0u);
  EXPECT_GT(ReadHostCpuTimes().total, 0u);
}

TEST(CpuAttribution, PeakRssCatchesAFreedBlockAndResets) {
  ASSERT_TRUE(ResetPeakRss());
  const RssMiB before = ReadRss();
  // mmap/munmap rather than the heap, so the block surely goes back to the
  // kernel whatever allocator the test runs under.
  constexpr std::size_t kBlock = 64 << 20;
  void* block = ::mmap(nullptr, kBlock, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(block, MAP_FAILED);
  std::memset(block, 1, kBlock);
  ::munmap(block, kBlock);
  const RssMiB after = ReadRss();
  EXPECT_GT(before.current, 0.0);
  EXPECT_GE(after.peak - before.current, 60.0);
  EXPECT_LT(after.current, after.peak - 60.0) << "the block went back to the kernel";
  ASSERT_TRUE(ResetPeakRss());
  EXPECT_LT(ReadRss().peak, after.peak - 60.0);
}

}  // namespace
}  // namespace ddos::ingest_bench
