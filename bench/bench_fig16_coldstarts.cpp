// Figure 16 — number of cold starts incurred by the scaling RMs for a
// snapshot of both traces (the paper uses a 2-hour snapshot; duration is a
// knob here). Every container spawn is a cold start in serverless platforms
// (images are pulled per container, §5.3).
//
// Expected shape: Fifer cuts cold starts several-fold versus BPred and ~3x
// versus RScale; the busier Wiki trace produces more cold starts than WITS.

#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  fifer::bench::BenchSettings s = fifer::bench::BenchSettings::from_config(cfg);
  s.duration_s = cfg.get_double("duration_s", 1200.0);
  const std::size_t jobs = fifer::bench::bench_jobs(cfg);
  fifer::exit_on_unknown_keys(cfg);

  fifer::Table t("Figure 16 — cold starts per trace snapshot (heavy mix)");
  t.set_columns({"policy", "wiki", "wits", "wiki_norm_vs_Fifer",
                 "wits_norm_vs_Fifer"});

  // Collect counts for the four scaling RMs the figure compares: one
  // 2-trace x 4-policy grid, fanned out over jobs=N workers.
  std::vector<fifer::RmConfig> rms{fifer::RmConfig::bpred(), fifer::RmConfig::bline(),
                                   fifer::RmConfig::fifer(), fifer::RmConfig::rscale()};
  for (auto& rm : rms) rm.idle_timeout_ms = fifer::seconds(s.idle_timeout_s);
  fifer::GridSweep grid(fifer::bench::make_params(
      fifer::RmConfig::bline(), fifer::WorkloadMix::heavy(), fifer::RateTrace{},
      "grid", s, fifer::bench::simulation_cluster()));
  for (const auto& rm : rms) grid.add(rm);
  grid.traces({{"wiki", fifer::bench::bench_wiki(s)},
               {"wits", fifer::bench::bench_wits(s)}})
      .jobs(jobs)
      .on_progress(fifer::bench::sweep_progress());
  const auto results = grid.run();

  std::map<std::string, std::pair<double, double>> counts;
  for (const auto& r : results) {
    auto& [wiki_count, wits_count] = counts[r.policy];
    (r.trace == "wiki" ? wiki_count : wits_count) =
        static_cast<double>(r.containers_spawned);
  }

  const auto [fifer_wiki, fifer_wits] = counts.at("Fifer");
  for (const auto& rm : rms) {
    const auto [wiki_count, wits_count] = counts.at(rm.name);
    t.add_row({rm.name, fifer::fmt(wiki_count, 0), fifer::fmt(wits_count, 0),
               fifer::fmt(fifer::bench::norm(wiki_count, fifer_wiki), 1),
               fifer::fmt(fifer::bench::norm(wits_count, fifer_wits), 1)});
  }
  t.print(std::cout);
  std::cout << "\nPaper check: Fifer incurs the fewest cold starts (up to ~7x\n"
               "fewer than BPred on Wiki, ~3x fewer than RScale); the busier\n"
               "Wiki trace cold-starts more than WITS for every policy.\n";
  return 0;
}
