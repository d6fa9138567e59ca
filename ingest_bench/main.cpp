// Ingest benchmark: drives ddoscope's `watch` and `ddoscoped` ingest paths
// end to end and prints every metric by name and unit, then one JSON result
// line.
//
//   ingest_bench --workload csv_watch|tcp_ingest --seed N
//                --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status: 0 when the final state matched the generated input, 1 on a
// mismatch (the result line then says "correct": false), 2 on a usage or
// set-up error (no result line).
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "netd/socket.h"
#include "support.h"
#include "workloads.h"

#ifndef INGEST_BENCH_BUILD_TYPE
#define INGEST_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ddos::ingest_bench;

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

// One line of context with every result: where and on what it ran.
std::string HostFingerprint(const Options& o, double ref_ms) {
  utsname u{};
  ::uname(&u);
  std::string out = "{\"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"cpu\": \"" + JsonEscape(CpuModel()) + "\"";
  out += std::string(", \"kernel\": \"") + u.sysname + " " + u.release + "\"";
  out += std::string(", \"compiler\": \"") + JsonEscape(__VERSION__) + "\"";
  out += std::string(", \"build_type\": \"") + INGEST_BENCH_BUILD_TYPE + "\"";
  out += ", \"work_dir\": \"" + JsonEscape(o.work_dir) + "\"";
  out += ", \"work_dir_fs\": \"" + FilesystemType(o.work_dir) + "\"";
  char ref[32];
  std::snprintf(ref, sizeof ref, "%.3f", ref_ms);
  out += std::string(", \"host.ref_ms\": ") + ref + "}";
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ingest_bench: %s\nusage: ingest_bench --workload csv_watch|tcp_ingest "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!IsKnownWorkload(o.workload)) return Usage("unknown workload");
  if (!(o.seconds > 0.0) || o.work_dir.empty()) return Usage("need --seconds > 0 and --work-dir");

  try {
    ddos::netd::IgnoreSigpipe();
    std::filesystem::create_directories(o.work_dir);
    const double ref_ms = HostReferenceMs();
    const Report report = RunWorkload(o);
    std::printf("workload: %s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
    std::printf("host: %s\n", HostFingerprint(o, ref_ms).c_str());
    for (const std::string& note : report.notes) std::printf("note: %s\n", note.c_str());
    for (const std::string& p : report.problems) std::printf("MISMATCH: %s\n", p.c_str());
    std::vector<Metric> metrics = report.metrics;
    if (o.trace) metrics.push_back({"host.ref_ms", ref_ms, "ms"});
    for (const Metric& m : metrics) {
      std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("failed_frac %.9g (%llu of %llu offered)\n",
                report.attempted == 0 ? 0.0
                                      : static_cast<double>(report.failed) /
                                            static_cast<double>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    const bool correct = report.problems.empty() && report.failed == 0;
    std::printf("%s\n",
                RenderResultLine(correct, report.attempted, report.failed, metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "ingest_bench: %s\n", e.what());
    return 2;
  }
}
