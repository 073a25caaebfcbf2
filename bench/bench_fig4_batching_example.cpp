// Figure 4 — the illustrative example: 8 simultaneous requests to a
// three-stage chain under (a) the baseline RM, which spawns one container
// per request per stage (24 containers), versus (b) the request-batching RM,
// which exploits slack to consolidate the same load into ~10 containers
// without violating the SLO.
//
// We reproduce the example as a real (tiny) simulation: a burst of N
// requests at t=0 into the IPA chain, run under Bline and under RScale.

#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  fifer::bench::BenchSettings s = fifer::bench::BenchSettings::from_config(cfg);
  const double burst = cfg.get_double("burst", 8.0);
  fifer::exit_on_unknown_keys(cfg);

  // One-second burst of `burst` requests, then silence; metrics cover all.
  s.warmup_s = 0.0;
  fifer::RateTrace trace({burst}, 1.0);

  fifer::Table t("Figure 4 — baseline vs request-batching RM (burst of " +
                 std::to_string(static_cast<int>(burst)) + " requests, IPA chain)");
  t.set_columns({"RM", "total_containers", "stage1_ASR", "stage2_NLP",
                 "stage3_QA"});

  // The figure is about container counts: with every container cold at
  // t=0, both RMs pay cold starts (the diagram's "overheads" region), so
  // latency columns would only restate the cold-start model.
  for (const auto& rm : {fifer::RmConfig::bline(), fifer::RmConfig::rscale()}) {
    auto params = fifer::bench::make_params(
        rm, fifer::WorkloadMix("ipa-only", {{"IPA", 1.0}}), trace, "burst", s,
        fifer::bench::prototype_cluster());
    const auto r = fifer::bench::run_logged(std::move(params));
    t.add_row({rm.name, std::to_string(r.containers_spawned),
               std::to_string(r.stages.at("ASR").containers_spawned),
               std::to_string(r.stages.at("NLP").containers_spawned),
               std::to_string(r.stages.at("QA").containers_spawned)});
  }
  t.print(std::cout);
  std::cout << "\nPaper check: the baseline spawns roughly one container per\n"
               "request per stage (24 in the paper's 8-request example); the\n"
               "batching RM consolidates the same burst into a handful by\n"
               "queuing requests within each stage's slack (10 in the paper).\n";
  return 0;
}
