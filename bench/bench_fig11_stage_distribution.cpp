// Figure 11 — distribution of containers across the three stages of the IPA
// application (ASR => NLP => QA) for every RM, heavy workload mix.
//
// Expected shape: Bline/BPred concentrate containers on the long-running
// bottleneck stage (ASR); Fifer's stage-aware batching plus proactive
// scaling balances ASR/QA and keeps the tiny NLP stage lean.

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

  fifer::Table t("Figure 11 — container distribution across IPA stages (%)");
  t.set_columns({"policy", "stage1_ASR", "stage2_NLP", "stage3_QA",
                 "spawned_total"});

  auto base = fifer::bench::make_params(
      fifer::RmConfig::bline(), fifer::WorkloadMix::heavy(),
      trace, "prototype", s,
      fifer::bench::prototype_cluster());
  const auto results = fifer::bench::run_paper_sweep(
      std::move(base), s, jobs);

  for (const auto& r : results) {
    // IPA's stages are ASR, NLP, QA; (FACED/FACER/HS/AP belong to
    // Detect-Fatigue in the heavy mix).
    const double asr = static_cast<double>(r.stages.at("ASR").containers_spawned);
    const double nlp = static_cast<double>(r.stages.at("NLP").containers_spawned);
    const double qa = static_cast<double>(r.stages.at("QA").containers_spawned);
    const double total = asr + nlp + qa;
    t.add_row({r.policy, fifer::fmt(100.0 * asr / total, 1),
               fifer::fmt(100.0 * nlp / total, 1), fifer::fmt(100.0 * qa / total, 1),
               fifer::fmt(total, 0)});
  }
  t.print(std::cout);
  std::cout << "\nPaper check: non-batching RMs put most containers on the\n"
               "bottleneck stage (ASR); Fifer balances ASR and QA with a\n"
               "small NLP share (short stage scales in early).\n";
  return 0;
}
