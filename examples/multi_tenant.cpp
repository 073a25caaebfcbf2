// Example: several tenants sharing one cluster, each with their own
// application mix and traffic share. Serverless platforms never share
// microservices across tenants (paper §2.1 + footnote 4), so each tenant's
// chains run on namespaced stages — and the paper's policies apply to each
// tenant's stages individually, which is exactly what combine_tenants sets
// up.
//
// Usage: multi_tenant [duration_s=300] [lambda=24] [policy=fifer] [seed=1]

#include <exception>
#include <iostream>
#include <map>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "core/framework.hpp"
#include "core/tenancy.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) try {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  const double duration_s = cfg.get_double("duration_s", 300.0);
  const double lambda = cfg.get_double("lambda", 24.0);
  const std::string policy = cfg.get_string("policy", "fifer");
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  fifer::exit_on_unknown_keys(cfg);

  // Three tenants: a big vision shop, a voice-assistant startup, and a
  // low-volume security product. Shares 3 : 2 : 1.
  const auto combined = fifer::combine_tenants(
      {{"visionco", fifer::WorkloadMix("v", {{"IMG", 1.0}, {"DetectFatigue", 1.0}}),
        3.0},
       {"voicely", fifer::WorkloadMix("a", {{"IPA", 1.0}}), 2.0},
       {"sentry", fifer::WorkloadMix("s", {{"FaceSecurity", 1.0}}), 1.0}},
      fifer::MicroserviceRegistry::djinn_tonic(),
      fifer::ApplicationRegistry::paper_chains());

  fifer::ExperimentParams params;
  params.rm = fifer::RmConfig::by_name(policy);
  params.rm.idle_timeout_ms = fifer::minutes(2.0);
  params.services = combined.services;
  params.applications = combined.applications;
  params.mix = combined.mix;
  params.trace = fifer::poisson_trace(duration_s, lambda);
  params.trace_name = "poisson";
  params.seed = seed;
  params.warmup_ms = fifer::seconds(60.0);
  params.train.epochs = 10;

  std::cout << "running " << params.rm.name << " for 3 tenants on one "
            << params.cluster.total_cores() << "-core cluster...\n\n";
  const auto r = fifer::run_experiment(std::move(params));

  // Roll stage metrics up per tenant.
  struct TenantAgg {
    std::uint64_t tasks = 0;
    std::uint64_t containers = 0;
    double wait_acc = 0.0;
    std::uint64_t wait_n = 0;
  };
  std::map<std::string, TenantAgg> tenants;
  for (const auto& [stage, sm] : r.stages) {
    const auto slash = stage.find('/');
    auto& agg = tenants[stage.substr(0, slash)];
    agg.tasks += sm.tasks_executed;
    agg.containers += sm.containers_spawned;
    agg.wait_acc += sm.queue_wait_ms.mean() * static_cast<double>(sm.tasks_executed);
    agg.wait_n += sm.tasks_executed;
  }

  fifer::Table t("per-tenant breakdown (" + r.policy + ")");
  t.set_columns({"tenant", "tasks", "containers", "mean_stage_wait_ms"});
  for (const auto& [name, agg] : tenants) {
    t.add_row({name, std::to_string(agg.tasks), std::to_string(agg.containers),
               fifer::fmt(agg.wait_n > 0 ? agg.wait_acc / agg.wait_n : 0.0, 1)});
  }
  t.print(std::cout);

  std::cout << "\ncluster-wide: " << r.jobs_completed << " jobs, "
            << fifer::fmt(100.0 - r.slo_violation_pct(), 2) << "% within SLO, "
            << r.containers_spawned << " containers, "
            << fifer::fmt(r.energy_joules / 1000.0, 1) << " kJ\n";
  std::cout << "\nNote the isolation: visionco's FACED containers are distinct\n"
               "from sentry's even though both run face detection.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
