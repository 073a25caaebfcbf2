// Quickstart: run one Fifer experiment end to end.
//
// Simulates the paper's prototype setup — an 80-core cluster serving the
// "heavy" workload mix (IPA + Detect-Fatigue chains) under a Poisson arrival
// trace — with the full Fifer policy (slack-aware batching + LSTM proactive
// scaling), then prints the headline metrics.
//
// Usage: quickstart [duration_s=120] [lambda=20] [policy=fifer] [seed=1]

#include <exception>
#include <iostream>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "core/framework.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) try {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  const double duration_s = cfg.get_double("duration_s", 120.0);
  const double lambda = cfg.get_double("lambda", 20.0);
  const std::string policy = cfg.get_string("policy", "fifer");
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  const double warmup_s = cfg.get_double("warmup_s", 0.0);
  const bool timeline = cfg.get_bool("timeline", false);
  fifer::exit_on_unknown_keys(cfg);

  fifer::ExperimentParams params;
  params.rm = fifer::RmConfig::by_name(policy);
  params.mix = fifer::WorkloadMix::heavy();
  params.trace = fifer::poisson_trace(duration_s, lambda);
  params.trace_name = "poisson";
  params.seed = seed;
  // Short demo run: reap idle containers quickly so scale-down is visible.
  params.rm.idle_timeout_ms = fifer::minutes(1.0);
  params.train.epochs = 10;
  params.warmup_ms = fifer::seconds(warmup_s);

  std::cout << "Running " << params.rm.name << " on " << params.mix.name()
            << " mix, Poisson(" << lambda << " req/s) for " << duration_s
            << " s of simulated time...\n";

  const fifer::ExperimentResult r = fifer::run_experiment(std::move(params));

  std::cout << "\njobs submitted        : " << r.jobs_submitted
            << "\njobs completed        : " << r.jobs_completed
            << "\nSLO violations        : " << r.slo_violations << " ("
            << fifer::fmt(r.slo_violation_pct(), 2) << "%)"
            << "\nmedian latency (ms)   : " << fifer::fmt(r.response_ms.median(), 1)
            << "\nP99 latency (ms)      : " << fifer::fmt(r.response_ms.p99(), 1)
            << "\ncontainers spawned    : " << r.containers_spawned
            << "\navg active containers : " << fifer::fmt(r.avg_active_containers, 1)
            << "\nrequests/container    : " << fifer::fmt(r.mean_rpc(), 1)
            << "\nenergy (kJ)           : " << fifer::fmt(r.energy_joules / 1000.0, 1)
            << "\n";

  if (timeline) {
    std::cout << "\ntimeline (t_s active prov queued nodes_on watts):\n";
    for (const auto& s : r.timeline) {
      std::cout << "  " << fifer::fmt(fifer::to_seconds(s.time), 0) << " "
                << s.active_containers << " " << s.provisioning_containers << " "
                << s.queued_tasks << " " << s.powered_on_nodes << " "
                << fifer::fmt(s.power_watts, 0) << "\n";
    }
  }

  std::cout << "\nper-stage breakdown:\n";
  for (const auto& [name, sm] : r.stages) {
    std::cout << "  " << name << ": containers=" << sm.containers_spawned
              << " tasks=" << sm.tasks_executed
              << " rpc=" << fifer::fmt(sm.requests_per_container(), 1)
              << " mean_wait_ms=" << fifer::fmt(sm.queue_wait_ms.mean(), 1) << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
