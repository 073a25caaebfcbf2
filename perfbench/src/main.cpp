// Runs one workload of the benchmark and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Human-readable lines come first; the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics of a traced run. Exit status 2 means bad arguments.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
            << "workloads:";
  for (const std::string& w : perfbench::workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 18) {
    return false;
  }
  *out = std::stoull(s);
  return true;
}

/// Whole numbers as integers, others as the shortest text that reads back
/// as the same double.
std::string number(double v) {
  char buf[32];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::stod(buf) == v) break;
  }
  return buf;
}

void print(const perfbench::RunOptions& opts, const perfbench::RunResult& r) {
  std::cout << "workload " << opts.workload << " seed " << opts.seed
            << (opts.trace ? " (traced)" : "") << "\n";
  for (const std::string& note : r.notes) std::cout << "  " << note << "\n";
  for (const perfbench::Metric& m : r.metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "  attempted " << r.attempted << ", failed " << r.failed << "\n";

  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::cout << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opts.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &opts.seed)) return usage("bad --seed " + value);
      have[1] = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &n) || n < 1 || n > 600) {
        return usage("bad --seconds " + value);
      }
      opts.seconds = static_cast<double>(n);
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      opts.trace = value == "1";
      have[3] = true;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) known = known || w == opts.workload;
  if (!known) return usage("unknown workload " + opts.workload);

  try {
    perfbench::RunResult r = perfbench::run_workload(opts);
    for (perfbench::Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        r.correct = false;
        r.notes.push_back("FAILED: " + m.name + " is not finite");
        m.value = 0.0;
      }
    }
    print(opts, r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
