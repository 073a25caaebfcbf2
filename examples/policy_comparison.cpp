// Example: head-to-head comparison of the five resource-management policies
// on a workload and trace of your choice — the programmatic version of the
// paper's evaluation loop (§6).
//
// Usage:
//   policy_comparison [trace=wits|wiki|poisson] [mix=heavy|medium|light]
//                     [duration_s=600] [lambda=20] [seed=1] [warmup_s=100]
//                     [jobs=N]
//
// Demonstrates: building traces, running a PolicySweep over the RmConfig
// presets (in parallel with jobs=N; results are byte-identical to jobs=1),
// and reading the ExperimentResult metrics (SLO compliance, containers,
// latency, energy).

#include <exception>
#include <iostream>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/sweep.hpp"
#include "workload/generators.hpp"

namespace {

fifer::RateTrace build_trace(const std::string& kind, double duration_s,
                             double lambda, fifer::Rng& rng) {
  if (kind == "poisson") return fifer::poisson_trace(duration_s, lambda);
  if (kind == "wits") {
    fifer::WitsParams p;
    p.duration_s = duration_s;
    p.base_rps = lambda;
    p.spike_peak_rps = 5.0 * lambda;
    p.walk_sigma = lambda * 0.07;
    p.noise_sigma = lambda * 0.05;
    return fifer::wits_trace(p, rng);
  }
  if (kind == "wiki") {
    fifer::WikiParams p;
    p.duration_s = duration_s;
    p.average_rps = lambda;
    p.day_period_s = std::max(120.0, duration_s / 3.0);
    return fifer::wiki_trace(p, rng);
  }
  throw std::invalid_argument("unknown trace kind: " + kind);
}

}  // namespace

int main(int argc, char** argv) try {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  const std::string trace_kind = cfg.get_string("trace", "wits");
  const std::string mix_name = cfg.get_string("mix", "heavy");
  const double duration_s = cfg.get_double("duration_s", 600.0);
  const double lambda = cfg.get_double("lambda", 20.0);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  const double warmup_s = cfg.get_double("warmup_s", 100.0);
  const std::int64_t jobs_arg = cfg.get_int(
      "jobs", static_cast<std::int64_t>(fifer::default_jobs()));
  const std::size_t jobs = jobs_arg < 1 ? 1 : static_cast<std::size_t>(jobs_arg);
  fifer::exit_on_unknown_keys(cfg);

  fifer::Rng trace_rng(seed ^ 0x7ace);
  const fifer::RateTrace trace =
      build_trace(trace_kind, duration_s, lambda, trace_rng);
  std::cout << "trace '" << trace_kind << "': avg "
            << fifer::fmt(trace.average_rate(), 1) << " req/s, peak "
            << fifer::fmt(trace.peak_rate(), 1) << " req/s, "
            << fifer::fmt(duration_s, 0) << " s\n\n";

  fifer::Table t("policy comparison — " + mix_name + " mix on " + trace_kind);
  t.set_columns({"policy", "SLO_ok_%", "median_ms", "P99_ms", "avg_containers",
                 "spawned", "cold_starts", "RPC", "energy_kJ"});

  fifer::ExperimentParams base;
  base.mix = fifer::WorkloadMix::by_name(mix_name);
  base.trace = trace;
  base.trace_name = trace_kind;
  base.seed = seed;
  base.warmup_ms = fifer::seconds(warmup_s);
  base.train.epochs = 25;
  base.input_scale_jitter = 0.15;

  fifer::PolicySweep sweep(std::move(base));
  for (auto rm : fifer::RmConfig::paper_policies()) {
    rm.idle_timeout_ms = fifer::minutes(2.0);
    sweep.add(std::move(rm));
  }
  const auto results = sweep.jobs(jobs).run();

  for (const auto& r : results) {
    t.add_row({r.policy, fifer::fmt(100.0 - r.slo_violation_pct(), 2),
               fifer::fmt(r.response_ms.median(), 0),
               fifer::fmt(r.response_ms.p99(), 0),
               fifer::fmt(r.avg_active_containers, 1),
               std::to_string(r.containers_spawned),
               std::to_string(r.containers_spawned),  // every spawn cold-starts
               fifer::fmt(r.mean_rpc(), 1),
               fifer::fmt(r.energy_joules / 1000.0, 1)});
  }
  t.print(std::cout);

  std::cout << "\nReading the table: Fifer should match Bline/BPred on SLO_ok\n"
               "while using a fraction of their containers; SBatch wins on\n"
               "containers but loses SLO compliance under load dynamics.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
