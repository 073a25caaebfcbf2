#pragma once

// The benchmark's workloads (README.md says why each exists). A run takes
// a seed and a measuring time, generates its inputs from the seed, drives
// the program, checks the outputs, and returns named metrics: the
// end-to-end set on an untraced run, the per-layer set on a traced run.

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result: sample counts and
  /// the reason for every failed check.
  std::vector<std::string> notes;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload. Throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunOptions& opts);

/// The canonical report of a run (result_to_json), the byte string the
/// traced/untraced identity check compares.
std::string report_text(const fifer::ExperimentResult& result);

}  // namespace perfbench
