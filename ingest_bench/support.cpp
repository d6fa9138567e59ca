#include "support.h"

#include <dirent.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

namespace ddos::ingest_bench {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

double Percentile(std::vector<double> values, double p, std::size_t min_beyond) {
  if (!(p > 0.0 && p <= 1.0)) throw std::invalid_argument("percentile out of (0, 1]");
  const std::size_t n = values.size();
  if (n == 0 || SamplesBeyond(n, p) < min_beyond) {
    std::ostringstream msg;
    msg << "p" << p * 100 << " of " << n << " samples leaves "
        << SamplesBeyond(n, p) << " beyond it; need " << min_beyond;
    throw InsufficientSamples(msg.str());
  }
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) throw InsufficientSamples("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

OpenLoopSchedule::OpenLoopSchedule(double rows_per_second, Clock::duration tick,
                                   Clock::time_point start)
    : rate_(rows_per_second), tick_(tick), start_(start) {
  if (!(rate_ > 0.0) || tick_ <= Clock::duration::zero()) {
    throw std::invalid_argument("schedule needs a positive rate and tick");
  }
}

Clock::time_point OpenLoopSchedule::DueTime(std::uint64_t index) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(index) / rate_));
}

std::uint64_t OpenLoopSchedule::DueCount(Clock::time_point now,
                                         std::uint64_t total) const {
  if (now < start_) return 0;
  const double elapsed = SecondsBetween(start_, now);
  const auto due = static_cast<std::uint64_t>(std::floor(elapsed * rate_)) + 1;
  return std::min(due, total);
}

void OpenLoopSchedule::NoteWake(std::uint64_t k, Clock::time_point woke) {
  lateness_ms_.push_back(std::max(0.0, MillisBetween(TickTime(k), woke)));
}

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

int ThisThreadId() { return static_cast<int>(::syscall(SYS_gettid)); }

std::vector<int> ListThreadIds() {
  std::vector<int> ids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9') {
      ids.push_back(std::atoi(entry->d_name));
    }
  }
  ::closedir(dir);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<int> NewThreadIds(const std::vector<int>& before,
                              const std::vector<int>& after) {
  std::vector<int> fresh;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(fresh));
  return fresh;
}

double ThreadCpuSeconds(int tid) {
  // The kernel's per-thread CPU clock id (what pthread_getcpuclockid
  // builds): ~tid in the high bits, CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED low.
  const clockid_t clock = static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) return -1.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

HostCpuTimes ParseHostCpuTimes(std::string_view proc_stat) {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user, so the first eight are summed.
  HostCpuTimes t;
  if (!proc_stat.starts_with("cpu ")) return t;
  std::istringstream in{std::string(proc_stat.substr(4, proc_stat.find('\n')))};
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

HostCpuTimes ReadHostCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return ParseHostCpuTimes(line);
}

double StealShare(const HostCpuTimes& before, const HostCpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

RssMiB ReadRss() {
  RssMiB rss;
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    double kib = 0.0;
    if (key == "VmHWM:" && status >> kib) rss.peak = kib / 1024.0;
    if (key == "VmRSS:" && status >> kib) rss.current = kib / 1024.0;
    status.ignore(1 << 12, '\n');
  }
  return rss;
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return static_cast<bool>(clear_refs);
}

std::string RenderResultLine(bool correct, std::uint64_t attempted,
                             std::uint64_t failed,
                             const std::vector<Metric>& metrics) {
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!IsValidMetricName(m.name) || !seen.insert(m.name).second) {
      throw std::invalid_argument("bad or repeated metric name: " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("metric " + m.name + " is not finite");
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", m.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace ddos::ingest_bench
