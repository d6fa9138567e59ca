// The ingest workloads of the benchmark (see README.md for why each exists
// and which layers it stresses).
#ifndef DDOSCOPE_INGEST_BENCH_WORKLOADS_H_
#define DDOSCOPE_INGEST_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "support.h"

namespace ddos::ingest_bench {

struct Options {
  std::string workload;   // csv_watch | tcp_ingest
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured region
  bool trace = false;     // per-layer run instead of the end-to-end run
  std::string work_dir;   // staged inputs, checkpoints, journal, traces
};

struct Report {
  // Correctness: every mismatch between the program's final state and the
  // values computed from the generated input is one entry here.
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;  // records offered (+ HTTP requests)
  std::uint64_t failed = 0;     // shortfall: offered records missing from the
                                // final state, rejected rows, failed requests
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<std::string> notes;
};

// Runs one workload; throws on a set-up failure.
Report RunWorkload(const Options& options);

bool IsKnownWorkload(const std::string& name);

// Milliseconds of a fixed single-thread integer loop (median of 5): a
// host-speed drift diagnostic, never used to rescale a metric.
double HostReferenceMs();

}  // namespace ddos::ingest_bench

#endif  // DDOSCOPE_INGEST_BENCH_WORKLOADS_H_
