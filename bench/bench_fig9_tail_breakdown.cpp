// Figure 9 — P99 tail latency broken into execution, cold-start, and
// queuing components for the heavy workload mix under every RM.
//
// Expected shape: batching RMs (SBatch/RScale) reach ~3x Bline's P99 from
// queuing congestion; Fifer lands ~2x with far less cold-start delay than
// RScale thanks to proactive provisioning.

#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  fifer::bench::BenchSettings s = fifer::bench::BenchSettings::from_config(cfg);
  s.duration_s = cfg.get_double("duration_s", 1200.0);
  s.lambda = cfg.get_double("lambda", 50.0);
  const fifer::RateTrace trace = fifer::bench::prototype_trace(cfg, s);
  const std::size_t jobs = fifer::bench::bench_jobs(cfg);
  fifer::exit_on_unknown_keys(cfg);

  fifer::Table t("Figure 9 — P99 latency breakdown, heavy mix (ms)");
  t.set_columns({"policy", "P99_total", "p99_queuing", "p99_cold_start",
                 "p99_exec", "norm_vs_Bline"});

  auto base = fifer::bench::make_params(
      fifer::RmConfig::bline(), fifer::WorkloadMix::heavy(),
      trace, "prototype", s,
      fifer::bench::prototype_cluster());
  const auto results = fifer::bench::run_paper_sweep(
      std::move(base), s, jobs);

  double bline_p99 = 0.0;
  for (const auto& r : results) {
    const double p99 = r.response_ms.p99();
    if (r.policy == "Bline") bline_p99 = p99;
    t.add_row({r.policy, fifer::fmt(p99, 0), fifer::fmt(r.queuing_ms.p99(), 0),
               fifer::fmt(r.cold_wait_ms.p99(), 0),
               fifer::fmt(r.exec_only_ms.p99(), 0),
               bline_p99 > 0.0 ? fifer::fmt(p99 / bline_p99, 2) : "-"});
  }
  t.print(std::cout);
  std::cout << "\nPaper check: SBatch/RScale tails run ~3x Bline from queue\n"
               "congestion; Fifer stays ~2x with cold-start delay well below\n"
               "RScale's (accurate proactive provisioning).\n";
  return 0;
}
