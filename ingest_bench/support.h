// Measurement helpers of the ingest benchmark: percentiles that refuse to
// report from too few samples, the open-loop schedule of the TCP load
// generator, metric-name validation, per-thread CPU attribution, resident
// memory, and the result line the benchmark prints last.
//
// Everything here is independent of the ddoscope libraries so that
// support_test.cpp can check it on its own.
#ifndef DDOSCOPE_INGEST_BENCH_SUPPORT_H_
#define DDOSCOPE_INGEST_BENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ddos::ingest_bench {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b);
double MillisBetween(Clock::time_point a, Clock::time_point b);

// Thrown when a percentile is asked of a sample too small to support it.
class InsufficientSamples : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Samples a nearest-rank percentile needs: at least `min_beyond` of them
// must lie above the rank the percentile reads.
std::size_t SamplesBeyond(std::size_t n, double p);

// Nearest-rank percentile (p in (0, 1]) of `values`. Throws
// InsufficientSamples when fewer than `min_beyond` samples lie beyond the
// rank, so a p99 needs at least 1,000 samples and a p90 at least 100.
double Percentile(std::vector<double> values, double p,
                  std::size_t min_beyond = 10);

// Median of a non-empty sample (mean of the middle pair when n is even).
double Median(std::vector<double> values);


// Open-loop arrival schedule: row i is due at start + i / rate, no matter
// how fast earlier rows were taken. The sender wakes on a fixed tick and
// sends every row already due; a tick's lateness is how long after its due
// time the sender actually woke, which is the generator's own delay and
// not the batching quantum.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rows_per_second, Clock::duration tick,
                   Clock::time_point start);

  Clock::time_point start() const { return start_; }
  // Due time of row `index` (0-based, global across connections).
  Clock::time_point DueTime(std::uint64_t index) const;
  // Rows due at or before `now`, capped at `total`.
  std::uint64_t DueCount(Clock::time_point now, std::uint64_t total) const;
  // Due time of tick k (tick 0 is `start`).
  Clock::time_point TickTime(std::uint64_t k) const { return start_ + tick_ * k; }
  // Records one wake-up for tick `k`; lateness is clamped at zero.
  void NoteWake(std::uint64_t k, Clock::time_point woke);
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }

  // Rows are dealt round-robin to `connections` sockets; the n-th row
  // (1-based, as `ACK n` counts it) on connection `conn` is global row:
  static std::uint64_t GlobalIndex(std::size_t conn, std::uint64_t n,
                                   std::size_t connections) {
    return (n - 1) * connections + conn;
  }

 private:
  double rate_;
  Clock::duration tick_;
  Clock::time_point start_;
  std::vector<double> lateness_ms_;
};

// Metric names: a letter or digit first, then at most 63 more of
// [A-Za-z0-9_.-].
bool IsValidMetricName(std::string_view name);

// --- CPU attribution -------------------------------------------------------

int ThisThreadId();
// Thread ids of this process, ascending (from /proc/self/task).
std::vector<int> ListThreadIds();
// Ids in `after` that are not in `before` (both ascending).
std::vector<int> NewThreadIds(const std::vector<int>& before,
                              const std::vector<int>& after);
// CPU seconds consumed so far by one thread of this process, nanosecond
// resolution; -1 when the thread has exited.
double ThreadCpuSeconds(int tid);
double ProcessCpuSeconds();

// Cumulative CPU time of the whole machine from the first line of
// /proc/stat, in clock ticks: every state, and the part the hypervisor
// stole from this VM.
struct HostCpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostCpuTimes ParseHostCpuTimes(std::string_view proc_stat);
HostCpuTimes ReadHostCpuTimes();
// Share of the CPU time between two readings that was stolen; 0 when no
// time passed.
double StealShare(const HostCpuTimes& before, const HostCpuTimes& after);

// Resident memory of this process in MiB: now (VmRSS) and the kernel's
// exact high-water mark (VmHWM) since the last ResetPeakRss().
struct RssMiB {
  double current = 0.0;
  double peak = 0.0;
};
RssMiB ReadRss();
// Resets VmHWM to the current RSS; false when the kernel refuses.
bool ResetPeakRss();

// --- result line -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The benchmark's last stdout line: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Throws std::invalid_argument on an
// invalid or repeated metric name, or a value that is not finite.
std::string RenderResultLine(bool correct, std::uint64_t attempted,
                             std::uint64_t failed,
                             const std::vector<Metric>& metrics);

}  // namespace ddos::ingest_bench

#endif  // DDOSCOPE_INGEST_BENCH_SUPPORT_H_
