// Ablation study — Fifer with each design choice flipped, quantifying what
// every component of the design contributes (the "brick-by-brick" spirit of
// the paper's §5.3/§6.1 comparisons, extended to the knobs DESIGN.md calls
// out):
//   * slack distribution: proportional (paper) vs equal-division
//   * scheduler: LSF (paper) vs FIFO
//   * node selection: greedy bin-packing (paper) vs spread
//   * predictor: LSTM (paper) vs EWMA vs none (pure reactive = RScale)
//   * prediction window Wp: 10 min (paper) vs 1 min
//   * batch cap: 64 (default) vs 1 (no batching) vs 8
//   * online retraining: off (paper default) vs 60 s

#include <iostream>

#include "bench_util.hpp"

namespace {

struct Variant {
  std::string label;
  fifer::RmConfig rm;
};

}  // namespace

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  fifer::bench::BenchSettings s = fifer::bench::BenchSettings::from_config(cfg);
  s.duration_s = cfg.get_double("duration_s", 1200.0);
  fifer::exit_on_unknown_keys(cfg);

  std::vector<Variant> variants;
  variants.push_back({"Fifer (paper)", fifer::RmConfig::fifer()});

  {
    auto rm = fifer::RmConfig::fifer();
    rm.slack_policy = fifer::SlackPolicy::kEqualDivision;
    variants.push_back({"slack: equal-division", rm});
  }
  {
    auto rm = fifer::RmConfig::fifer();
    rm.scheduler = fifer::SchedulerPolicy::kFifo;
    variants.push_back({"scheduler: FIFO", rm});
  }
  {
    auto rm = fifer::RmConfig::fifer();
    rm.node_selection = fifer::NodeSelection::kSpread;
    variants.push_back({"placement: spread", rm});
  }
  {
    auto rm = fifer::RmConfig::fifer();
    rm.predictor = "ewma";
    variants.push_back({"predictor: EWMA", rm});
  }
  {
    auto rm = fifer::RmConfig::fifer();
    rm.predictor = "oracle";
    variants.push_back({"predictor: oracle (upper bound)", rm});
  }
  {
    auto rm = fifer::RmConfig::fifer();
    rm.predictor = "";
    variants.push_back({"predictor: none (reactive)", rm});
  }
  {
    auto rm = fifer::RmConfig::fifer();
    rm.predict_window_ms = fifer::minutes(1.0);
    variants.push_back({"Wp: 1 min", rm});
  }
  {
    auto rm = fifer::RmConfig::fifer();
    rm.batch_cap = 1;
    variants.push_back({"batch cap: 1 (no batching)", rm});
  }
  {
    auto rm = fifer::RmConfig::fifer();
    rm.batch_cap = 8;
    variants.push_back({"batch cap: 8", rm});
  }
  {
    auto rm = fifer::RmConfig::fifer();
    rm.retrain_interval_ms = fifer::seconds(60.0);
    variants.push_back({"online retraining: 60 s", rm});
  }
  {
    auto rm = fifer::RmConfig::fifer();
    rm.reactive_burst_factor = 1e9;  // uncapped Algorithm-1b estimates
    variants.push_back({"reactive bursts: uncapped", rm});
  }
  {
    auto rm = fifer::RmConfig::fifer();
    rm.enable_reclamation = false;
    variants.push_back({"idle reclamation: off", rm});
  }
  // Extra baseline: the Kubernetes-HPA-class autoscaler (§2.2.1) for
  // contrast with the slack-aware design.
  variants.push_back({"HPA autoscaler", fifer::RmConfig::hpa()});

  fifer::Table t("Fifer ablations — heavy mix, WITS-shaped trace");
  t.set_columns({"variant", "SLO_ok_%", "P99_ms", "avg_containers", "spawned",
                 "energy_kJ"});

  for (auto& v : variants) {
    v.rm.name = v.label;
    // The paper sizes trace-driven simulations to peak capacity (§5.3);
    // the 256-core simulation cluster keeps the ablation out of the
    // saturation regime so knob effects are visible.
    auto params = fifer::bench::make_params(v.rm, fifer::WorkloadMix::heavy(),
                                            fifer::bench::bench_wits(s), "wits", s,
                                            fifer::bench::simulation_cluster());
    const auto r = fifer::bench::run_logged(std::move(params));
    t.add_row({v.label, fifer::fmt(100.0 - r.slo_violation_pct(), 2),
               fifer::fmt(r.response_ms.p99(), 0),
               fifer::fmt(r.avg_active_containers, 1),
               std::to_string(r.containers_spawned),
               fifer::fmt(r.energy_joules / 1000.0, 1)});
  }
  t.print(std::cout);
  std::cout << "\nReading the table: each flipped knob should cost either SLO\n"
               "compliance (FIFO, no predictor, short Wp), containers (batch\n"
               "cap 1), or energy (spread placement) relative to full Fifer.\n";
  return 0;
}
