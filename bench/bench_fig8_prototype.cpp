// Figure 8 — real-system prototype comparison on the Poisson arrival trace:
//   (a) SLO violations and (b) average number of containers spawned, for all
//   five RMs across the three workload mixes, normalized to Bline.
//
// Expected shape: SBatch spawns fewest containers but violates most SLOs;
// Bline/BPred over-provision with few violations; Fifer matches Bline's SLO
// compliance while spawning ~80% fewer containers.
//
// Live leg (live=1): this is the paper's actual Figure 8 methodology — a
// real system and the simulator driven by the same trace. We replay the
// heavy mix through the wall-clock runtime (time-compressed
// by live_scale, default 100x) behind the byte-identical policy engine and
// report sim-vs-live deltas per RM: SLO-violation percentage points and
// peak-container percentage. Keep the offered load inside the prototype's
// real-time capacity (see DESIGN.md section 5e) or the deltas measure
// harness saturation, not policy behaviour.

#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "runtime/live_runtime.hpp"

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  fifer::bench::BenchSettings s = fifer::bench::BenchSettings::from_config(cfg);
  // Poisson with slow mean drift: what a long-running load generator
  // produces against a live cluster. drift=0 gives the textbook
  // constant-rate process (where a clean simulator shows ~zero violations
  // for every RM — see EXPERIMENTS.md).
  const double drift = cfg.get_double("drift", 0.8);
  const std::size_t jobs = fifer::bench::bench_jobs(cfg);
  const bool live = cfg.get_bool("live", false);
  const double live_scale = cfg.get_double("live_scale", 100.0);
  fifer::exit_on_unknown_keys(cfg);

  fifer::Table slo("Figure 8a — SLO violations (% absolute | normalized to Bline)");
  fifer::Table containers(
      "Figure 8b — avg active containers (absolute | normalized to Bline)");
  fifer::Table spawned("Extra — total containers spawned (normalized to Bline)");
  slo.set_columns({"workload", "Bline", "SBatch", "RScale", "BPred", "Fifer"});
  containers.set_columns({"workload", "Bline", "SBatch", "RScale", "BPred", "Fifer"});
  spawned.set_columns({"workload", "Bline", "SBatch", "RScale", "BPred", "Fifer"});

  std::vector<fifer::ExperimentResult> heavy_results;
  for (const auto* mix_name : {"heavy", "medium", "light"}) {
    const auto mix = fifer::WorkloadMix::by_name(mix_name);
    fifer::Rng trace_rng(s.seed ^ 0xF18);
    auto base = fifer::bench::make_params(
        fifer::RmConfig::bline(), mix,
        drift > 0.0 ? fifer::modulated_poisson_trace(s.duration_s, s.lambda,
                                                     drift, trace_rng)
                    : fifer::poisson_trace(s.duration_s, s.lambda),
        "poisson", s, fifer::bench::prototype_cluster());
    const auto results =
        fifer::bench::run_paper_sweep(std::move(base), s, jobs);
    if (std::string(mix_name) == "heavy") heavy_results = results;
    std::vector<double> v_pct, v_act, v_spawn;
    for (const auto& r : results) {
      v_pct.push_back(r.slo_violation_pct());
      v_act.push_back(r.avg_active_containers);
      v_spawn.push_back(static_cast<double>(r.containers_spawned));
    }
    auto fmt_pair = [](double abs, double base, int precision) {
      return fifer::fmt(abs, precision) + " | " +
             (base > 0.0 ? fifer::fmt(abs / base, 2) : std::string("-"));
    };
    std::vector<std::string> slo_row{mix_name}, act_row{mix_name}, sp_row{mix_name};
    for (std::size_t i = 0; i < v_pct.size(); ++i) {
      slo_row.push_back(fmt_pair(v_pct[i], v_pct[0], 2));
      act_row.push_back(fmt_pair(v_act[i], v_act[0], 1));
      sp_row.push_back(fmt_pair(v_spawn[i], v_spawn[0], 0));
    }
    slo.add_row(slo_row);
    containers.add_row(act_row);
    spawned.add_row(sp_row);
  }

  slo.print(std::cout);
  std::cout << "\n";
  containers.print(std::cout);
  std::cout << "\n";
  spawned.print(std::cout);
  std::cout << "\nPaper check: Fifer spawns the fewest containers after SBatch\n"
               "while keeping SLO violations at Bline levels; batching-only\n"
               "RMs (SBatch/RScale) trade violations for containers.\n";

  if (live) {
    fifer::Table fidelity("Figure 8 live leg — sim vs wall-clock runtime, heavy mix (" +
                          fifer::fmt(live_scale, 0) + "x compression)");
    fidelity.set_columns({"RM", "SLO% sim", "SLO% live", "delta pp",
                          "peak ctr sim", "peak ctr live", "delta %", "wall s"});
    const auto mix = fifer::WorkloadMix::by_name("heavy");
    const auto rms = fifer::bench::paper_policies(s);
    for (std::size_t i = 0; i < rms.size(); ++i) {
      // Regenerate the heavy-mix trace with the sweep's exact RNG stream so
      // the live run replays the identical request sequence the simulator
      // processed above (heavy is the sweep's first mix, so the generator
      // state matches).
      fifer::Rng trace_rng(s.seed ^ 0xF18);
      auto p = fifer::bench::make_params(
          rms[i], mix,
          drift > 0.0 ? fifer::modulated_poisson_trace(s.duration_s, s.lambda,
                                                       drift, trace_rng)
                      : fifer::poisson_trace(s.duration_s, s.lambda),
          "poisson", s, fifer::bench::prototype_cluster());
      std::cerr << "  running live " << rms[i].name << " ...\n";
      fifer::LiveOptions opts;
      opts.time_scale = live_scale;
      const fifer::LiveRunReport live = fifer::run_live(std::move(p), opts);
      const fifer::ExperimentResult& sim = heavy_results[i];
      const double sim_slo = sim.slo_violation_pct();
      const double live_slo = live.result.slo_violation_pct();
      const auto sim_peak = static_cast<double>(sim.peak_active_containers);
      const auto live_peak =
          static_cast<double>(live.result.peak_active_containers);
      fidelity.add_row(
          {rms[i].name, fifer::fmt(sim_slo, 2), fifer::fmt(live_slo, 2),
           fifer::fmt(live_slo - sim_slo, 2), fifer::fmt(sim_peak, 0),
           fifer::fmt(live_peak, 0),
           fifer::fmt(sim_peak > 0.0
                          ? 100.0 * (live_peak - sim_peak) / sim_peak
                          : 0.0,
                      1),
           fifer::fmt(live.wall_seconds, 2)});
    }
    std::cout << "\n";
    fidelity.print(std::cout);
    std::cout << "\nFidelity check (paper §6.1): per-RM deltas should sit within\n"
                 "~5 pp of SLO violations and ~10% of peak containers when the\n"
                 "offered load is inside the runtime's real-time capacity.\n";
  }
  return 0;
}
