// Figure 15 — cluster-wide energy consumption normalized to Bline (heavy
// workload mix). Energy is the time-integral of the node power model; the
// savings come from greedy bin-packing consolidating containers so idle
// nodes power down (paper §4.4.2 / §6.1.4).
//
// Expected shape: Fifer ~31% below Bline and within a few percent of
// SBatch; RScale in between.

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

  fifer::Table t("Figure 15 — cluster energy, heavy mix (normalized to Bline)");
  t.set_columns({"policy", "energy_kJ", "normalized", "avg_power_W",
                 "avg_nodes_on"});

  auto params = fifer::bench::make_params(
      fifer::RmConfig::bline(), fifer::WorkloadMix::heavy(),
      trace, "prototype", s,
      fifer::bench::prototype_cluster());
  const auto results = fifer::bench::run_paper_sweep(
      std::move(params), s, jobs);

  double base = 0.0;
  for (const auto& r : results) {
    if (r.policy == "Bline") base = r.energy_joules;
    double nodes = 0.0;
    for (const auto& sample : r.timeline) nodes += sample.powered_on_nodes;
    nodes /= static_cast<double>(r.timeline.size());
    t.add_row({r.policy, fifer::fmt(r.energy_joules / 1000.0, 1),
               base > 0.0 ? fifer::fmt(r.energy_joules / base, 3) : "-",
               fifer::fmt(r.avg_power_watts(), 0), fifer::fmt(nodes, 2)});
  }
  t.print(std::cout);
  std::cout << "\nPaper check: Fifer lands ~30% below Bline and within a few\n"
               "percent of SBatch while (unlike SBatch) still scaling with\n"
               "demand.\n";
  return 0;
}
