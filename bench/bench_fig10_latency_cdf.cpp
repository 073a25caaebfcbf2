// Figure 10 — heavy-workload latency distributions:
//   (a) CDF of total response latency up to P95 for every RM, and
//   (b) the queuing-time distribution (median/quartiles/whiskers).
//
// Expected shape: batching RMs shift the whole latency body right (higher
// medians) but Fifer keeps ~99% of requests inside the 1000 ms SLO;
// Fifer's median queuing sits in the 50-400 ms band, RScale's higher.

#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  fifer::bench::BenchSettings s = fifer::bench::BenchSettings::from_config(cfg);
  s.duration_s = cfg.get_double("duration_s", 1200.0);
  s.lambda = cfg.get_double("lambda", 50.0);
  const std::string csv_path = cfg.get_string("csv", "");
  const fifer::RateTrace trace = fifer::bench::prototype_trace(cfg, s);
  const std::size_t jobs = fifer::bench::bench_jobs(cfg);
  fifer::exit_on_unknown_keys(cfg);

  auto base = fifer::bench::make_params(
      fifer::RmConfig::bline(), fifer::WorkloadMix::heavy(),
      trace, "prototype", s,
      fifer::bench::prototype_cluster());
  const auto results = fifer::bench::run_paper_sweep(
      std::move(base), s, jobs);

  fifer::Table t("Figure 10a — response-latency CDF up to P95, heavy mix (ms)");
  std::vector<std::string> head{"quantile"};
  for (const auto& r : results) head.push_back(r.policy);
  t.set_columns(head);
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.95}) {
    std::vector<std::string> row{fifer::fmt(q, 2)};
    for (const auto& r : results) {
      row.push_back(fifer::fmt(r.response_ms.quantile(q), 0));
    }
    t.add_row(row);
  }
  t.print(std::cout);

  std::cout << "\n";
  fifer::Table q("Figure 10b — queuing-time distribution, heavy mix (ms)");
  q.set_columns({"policy", "p25", "median", "p75", "p95", "p99"});
  for (const auto& r : results) {
    q.add_row(r.policy,
              {r.queuing_ms.quantile(0.25), r.queuing_ms.median(),
               r.queuing_ms.quantile(0.75), r.queuing_ms.quantile(0.95),
               r.queuing_ms.p99()},
              0);
  }
  q.print(std::cout);

  // Fraction of requests completing inside the SLO, the paper's 99% claim.
  std::cout << "\nrequests within SLO:";
  for (const auto& r : results) {
    std::cout << "  " << r.policy << "="
              << fifer::fmt(100.0 - r.slo_violation_pct(), 1) << "%";
  }
  std::cout << "\n\nPaper check: batching raises medians; Fifer's queuing median\n"
               "sits well above Bline's but ~99% of its requests still finish\n"
               "inside the 1000 ms SLO.\n";

  if (!csv_path.empty()) {
    fifer::CsvWriter csv(csv_path, {"policy", "quantile", "latency_ms"});
    for (const auto& r : results) {
      for (const auto& [value, prob] : r.response_ms.cdf(200)) {
        csv.write_row({r.policy, fifer::fmt(prob, 4), fifer::fmt(value, 2)});
      }
    }
    std::cout << "full CDFs written to " << csv_path << "\n";
  }
  return 0;
}
