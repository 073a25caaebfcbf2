// Figures 13 & 14 — the trace-driven simulation (paper §6.2): both
// real-world trace shapes (Wiki diurnal, WITS spiky) across all three
// workload mixes and all five RMs, on the scaled-up simulation cluster.
// Reports SLO violations and average containers normalized to Bline
// (Fig 13 a-d) plus median and tail latency (Fig 14 a-d).
//
// Expected shape: the Wiki trace's dynamism costs reactive RMs containers
// and violations; Fifer rides the LSTM forecast, spawning several times
// fewer containers than RScale/BPred at Bline-level SLO compliance; WITS
// shows lower violations overall but Fifer keeps a large container gap.

#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  fifer::bench::BenchSettings s = fifer::bench::BenchSettings::from_config(cfg);
  s.duration_s = cfg.get_double("duration_s", 1200.0);
  const std::size_t jobs = fifer::bench::bench_jobs(cfg);
  fifer::exit_on_unknown_keys(cfg);

  // One full-factorial grid: 2 traces x 3 mixes x 5 RMs = 30 runs, fanned
  // out over jobs=N workers. Results come back row-major (trace slowest,
  // policy fastest), so each (trace, mix) cell is a contiguous block.
  const std::vector<fifer::RmConfig> rms = fifer::bench::paper_policies(s);
  const std::vector<std::string> mixes = {"heavy", "medium", "light"};
  fifer::GridSweep grid(fifer::bench::make_params(
      fifer::RmConfig::bline(), fifer::WorkloadMix::heavy(), fifer::RateTrace{},
      "grid", s, fifer::bench::simulation_cluster()));
  for (const auto& rm : rms) grid.add(rm);
  grid.mixes({fifer::WorkloadMix::heavy(), fifer::WorkloadMix::medium(),
              fifer::WorkloadMix::light()})
      .traces({{"WIKI", fifer::bench::bench_wiki(s)},
               {"WITS", fifer::bench::bench_wits(s)}})
      .jobs(jobs)
      .on_progress(fifer::bench::sweep_progress());
  const auto results = grid.run();
  const auto at = [&](std::size_t ti, std::size_t mi, std::size_t pi)
      -> const fifer::ExperimentResult& {
    return results[(ti * mixes.size() + mi) * rms.size() + pi];
  };

  for (const auto* trace_name : {"WIKI", "WITS"}) {
    const std::size_t ti = std::string(trace_name) == "WIKI" ? 0 : 1;

    fifer::Table slo(std::string("Figure 13 — ") + trace_name +
                     ": SLO violations (% | normalized to Bline)");
    fifer::Table cont(std::string("Figure 13 — ") + trace_name +
                      ": avg containers (normalized to Bline)");
    fifer::Table med(std::string("Figure 14 — ") + trace_name +
                     ": median latency (ms)");
    fifer::Table tail(std::string("Figure 14 — ") + trace_name +
                      ": P99 tail latency (ms)");
    for (auto* t : {&slo, &cont, &med, &tail}) {
      t->set_columns({"workload", "Bline", "SBatch", "RScale", "BPred", "Fifer"});
    }

    for (std::size_t mi = 0; mi < mixes.size(); ++mi) {
      const std::string& mix_name = mixes[mi];
      std::vector<double> v_slo, v_cont, v_med, v_tail;
      for (std::size_t pi = 0; pi < rms.size(); ++pi) {
        const auto& r = at(ti, mi, pi);
        v_slo.push_back(r.slo_violation_pct());
        v_cont.push_back(r.avg_active_containers);
        v_med.push_back(r.response_ms.median());
        v_tail.push_back(r.response_ms.p99());
      }
      std::vector<std::string> slo_row{mix_name}, cont_row{mix_name};
      for (std::size_t i = 0; i < v_slo.size(); ++i) {
        slo_row.push_back(fifer::fmt(v_slo[i], 2) + " | " +
                          (v_slo[0] > 0 ? fifer::fmt(v_slo[i] / v_slo[0], 2)
                                        : std::string("-")));
        cont_row.push_back(fifer::fmt(v_cont[i], 1) + " | " +
                           fifer::fmt(fifer::bench::norm(v_cont[i], v_cont[0]), 2));
      }
      slo.add_row(slo_row);
      cont.add_row(cont_row);
      med.add_row(mix_name, v_med, 0);
      tail.add_row(mix_name, v_tail, 0);
    }

    slo.print(std::cout);
    std::cout << "\n";
    cont.print(std::cout);
    std::cout << "\n";
    med.print(std::cout);
    std::cout << "\n";
    tail.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Paper check: Fifer holds SLO compliance near Bline/BPred on\n"
               "both traces while using several-fold fewer containers than\n"
               "RScale/BPred; medians rise under batching; RScale's tails\n"
               "inflate on the dynamic Wiki trace from reactive cold starts.\n";
  return 0;
}
