// Example: post-hoc analysis of Fifer's request-level traces. Two modes:
//
//   * Lifecycle-log mode (default): runs an experiment with the JSONL
//     lifecycle trace enabled (or reads an existing log via log=path), then
//     mines it for per-application latency breakdowns, per-stage wait/exec
//     shares, and a container cold-start summary.
//   * Spans mode (spans=<path>): mines a per-request spans CSV produced by
//     `fifer_cli --trace=PREFIX` (PREFIX.spans.csv) — per-stage breakdown
//     plus the top-N slowest requests with the stage that cost each one the
//     most, i.e. the "trace one slow request" workflow from the README.
//
// Usage: trace_analyzer [spans=<path.csv>] [top=5]
//        trace_analyzer [log=<path>] [policy=fifer] [duration_s=240]
//                       [lambda=15] [keep_log=false]

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/framework.hpp"
#include "workload/generators.hpp"

namespace {

struct AppAgg {
  fifer::Percentiles response_ms;
  std::uint64_t violations = 0;
};

struct StageAgg {
  fifer::RunningStats wait_ms;
  fifer::RunningStats exec_ms;
  fifer::RunningStats cold_ms;
};

std::vector<std::string> split_csv_row(const std::string& line) {
  // The tracing exports quote nothing we emit (names are identifiers), so a
  // plain comma split is exact here.
  std::vector<std::string> fields;
  std::stringstream in(line);
  std::string field;
  while (std::getline(in, field, ',')) fields.push_back(field);
  return fields;
}

/// Spans-CSV mode: per-stage breakdown + the slowest requests and where
/// each one lost its time.
int analyze_spans(const std::string& path, std::size_t top) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open spans csv: " + path);

  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("empty spans csv");
  const std::vector<std::string> header = split_csv_row(line);
  std::map<std::string, std::size_t> col;
  for (std::size_t i = 0; i < header.size(); ++i) col[header[i]] = i;
  for (const char* need : {"job", "app", "stage", "wait_ms", "exec_ms",
                           "cold_wait_ms", "slack_at_dispatch_ms"}) {
    if (col.find(need) == col.end()) {
      throw std::runtime_error(std::string("spans csv lacks column ") + need);
    }
  }

  struct JobAgg {
    std::string app;
    double total_wait_ms = 0.0;
    double total_cold_ms = 0.0;
    double min_slack_ms = 1e300;
    std::string worst_stage;
    double worst_wait_ms = -1.0;
  };
  std::map<std::string, StageAgg> stages;
  std::map<std::uint64_t, JobAgg> jobs;
  while (std::getline(in, line)) {
    const std::vector<std::string> f = split_csv_row(line);
    const std::string& stage = f[col["stage"]];
    const double wait = std::stod(f[col["wait_ms"]]);
    const double cold = std::stod(f[col["cold_wait_ms"]]);
    const double slack = std::stod(f[col["slack_at_dispatch_ms"]]);
    StageAgg& sa = stages[stage];
    sa.wait_ms.add(wait);
    sa.exec_ms.add(std::stod(f[col["exec_ms"]]));
    sa.cold_ms.add(cold);
    JobAgg& ja = jobs[std::stoull(f[col["job"]])];
    ja.app = f[col["app"]];
    ja.total_wait_ms += wait;
    ja.total_cold_ms += cold;
    ja.min_slack_ms = std::min(ja.min_slack_ms, slack);
    if (wait > ja.worst_wait_ms) {
      ja.worst_wait_ms = wait;
      ja.worst_stage = stage;
    }
  }

  fifer::Table per_stage("per-stage breakdown (from spans csv)");
  per_stage.set_columns(
      {"stage", "tasks", "mean_wait_ms", "mean_exec_ms", "mean_cold_ms"});
  for (auto& [name, agg] : stages) {
    per_stage.add_row({name, std::to_string(agg.wait_ms.count()),
                       fifer::fmt(agg.wait_ms.mean(), 1),
                       fifer::fmt(agg.exec_ms.mean(), 1),
                       fifer::fmt(agg.cold_ms.mean(), 1)});
  }
  per_stage.print(std::cout);

  // Rank jobs by total queuing wait and show where each lost its time.
  std::vector<std::pair<std::uint64_t, const JobAgg*>> ranked;
  ranked.reserve(jobs.size());
  for (const auto& [id, agg] : jobs) ranked.emplace_back(id, &agg);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second->total_wait_ms > b.second->total_wait_ms;
  });
  std::cout << "\n";
  fifer::Table slow("slowest requests (by total wait)");
  slow.set_columns({"job", "app", "wait_ms", "cold_ms", "worst_stage",
                    "worst_wait_ms", "min_slack_ms"});
  for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
    const JobAgg& ja = *ranked[i].second;
    slow.add_row({std::to_string(ranked[i].first), ja.app,
                  fifer::fmt(ja.total_wait_ms, 1),
                  fifer::fmt(ja.total_cold_ms, 1), ja.worst_stage,
                  fifer::fmt(ja.worst_wait_ms, 1),
                  fifer::fmt(ja.min_slack_ms, 1)});
  }
  slow.print(std::cout);
  std::cout << "\nspans analyzed: " << jobs.size() << " requests across "
            << stages.size() << " stages\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  const bool spans_mode = cfg.has("spans");
  const std::string spans_path = cfg.get_string("spans", "");
  const auto top = static_cast<std::size_t>(cfg.get_int("top", 5));
  std::string log_path = cfg.get_string("log", "");
  const bool keep_log = cfg.get_bool("keep_log", false);
  // Knobs of the run that produces a log when none is supplied.
  const std::string policy = cfg.get_string("policy", "fifer");
  const double duration_s = cfg.get_double("duration_s", 240.0);
  const double lambda = cfg.get_double("lambda", 15.0);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  fifer::exit_on_unknown_keys(cfg);

  if (spans_mode) return analyze_spans(spans_path, top);
  bool generated = false;

  if (log_path.empty()) {
    // No log supplied: produce one.
    log_path = "fifer_trace.jsonl";
    generated = true;
    fifer::ExperimentParams p;
    p.rm = fifer::RmConfig::by_name(policy);
    p.mix = fifer::WorkloadMix::heavy();
    p.trace = fifer::poisson_trace(duration_s, lambda);
    p.seed = seed;
    p.train.epochs = 8;
    p.trace_log_path = log_path;
    const auto r = fifer::run_experiment(std::move(p));
    std::cout << "ran " << r.policy << ": " << r.jobs_completed
              << " jobs logged to " << log_path << "\n\n";
  }

  // ---- mine the log ----
  std::ifstream in(log_path);
  if (!in) throw std::runtime_error("cannot open log: " + log_path);

  std::map<std::string, AppAgg> apps;
  std::map<std::string, StageAgg> stages;
  fifer::RunningStats cold_starts_ms;
  std::string line;
  std::uint64_t jobs = 0, containers = 0;
  while (std::getline(in, line)) {
    const fifer::Json rec = fifer::Json::parse(line);
    const std::string& type = rec.at("type").as_string();
    if (type == "container") {
      ++containers;
      cold_starts_ms.add(rec.at("cold_start_ms").as_number());
      continue;
    }
    ++jobs;
    AppAgg& app = apps[rec.at("app").as_string()];
    app.response_ms.add(rec.at("response_ms").as_number());
    app.violations += rec.at("violated_slo").as_bool() ? 1 : 0;
    const fifer::Json& stage_list = rec.at("stages");
    for (std::size_t i = 0; i < stage_list.size(); ++i) {
      const fifer::Json& s = stage_list.at(i);
      StageAgg& agg = stages[s.at("stage").as_string()];
      const double wait =
          s.at("exec_start_ms").as_number() - s.at("enqueued_ms").as_number();
      agg.wait_ms.add(wait);
      agg.exec_ms.add(s.at("exec_end_ms").as_number() -
                      s.at("exec_start_ms").as_number());
      agg.cold_ms.add(s.at("cold_wait_ms").as_number());
    }
  }

  fifer::Table per_app("per-application latency (from the trace log)");
  per_app.set_columns({"app", "jobs", "median_ms", "p99_ms", "violations"});
  for (auto& [name, agg] : apps) {
    per_app.add_row({name, std::to_string(agg.response_ms.count()),
                     fifer::fmt(agg.response_ms.median(), 0),
                     fifer::fmt(agg.response_ms.p99(), 0),
                     std::to_string(agg.violations)});
  }
  per_app.print(std::cout);

  std::cout << "\n";
  fifer::Table per_stage("per-stage breakdown");
  per_stage.set_columns(
      {"stage", "tasks", "mean_wait_ms", "mean_exec_ms", "mean_cold_ms"});
  for (auto& [name, agg] : stages) {
    per_stage.add_row({name, std::to_string(agg.wait_ms.count()),
                       fifer::fmt(agg.wait_ms.mean(), 1),
                       fifer::fmt(agg.exec_ms.mean(), 1),
                       fifer::fmt(agg.cold_ms.mean(), 1)});
  }
  per_stage.print(std::cout);

  std::cout << "\ncontainers spawned: " << containers << " (mean cold start "
            << fifer::fmt(cold_starts_ms.mean(), 0) << " ms); jobs analyzed: "
            << jobs << "\n";

  if (generated && !keep_log) std::remove(log_path.c_str());
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
