// Example: onboarding a *custom* application onto Fifer — the tenant-side
// workflow the paper describes in §4.1/§5.1:
//
//   1. profile your microservices offline (here: synthetic profiling runs),
//   2. fit the MET estimator (linear exec-time-vs-input-size model),
//   3. register the services and the chain with an SLO,
//   4. inspect the slack allocation / batch sizes Fifer derives,
//   5. run the chain under Fifer next to the stock baseline.
//
// Usage: custom_application [slo_ms=1000] [duration_s=300] [lambda=15]

#include <exception>
#include <iostream>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "core/framework.hpp"
#include "core/slack.hpp"
#include "workload/exec_estimator.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) try {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  const double slo_ms = cfg.get_double("slo_ms", 1000.0);
  const double duration_s = cfg.get_double("duration_s", 300.0);
  const double lambda = cfg.get_double("lambda", 15.0);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  fifer::exit_on_unknown_keys(cfg);

  // ---- 1. offline profiling: measure exec time across input sizes. ----
  // A video-moderation pipeline: decode -> object detection -> policy check.
  fifer::Rng profiling_rng(seed);
  fifer::ExecTimeEstimator decode_model;
  {
    std::vector<double> sizes, times;
    for (int frames = 1; frames <= 30; ++frames) {
      sizes.push_back(frames);
      // "Measured" profile: ~2.1 ms per frame plus 6 ms setup, with noise.
      times.push_back(6.0 + 2.1 * frames + profiling_rng.normal(0.0, 0.4));
    }
    decode_model.fit(sizes, times);
  }
  std::cout << "DECODE MET model: exec_ms ~= " << fifer::fmt(decode_model.slope(), 2)
            << " * frames + " << fifer::fmt(decode_model.intercept(), 2)
            << "  (R^2 = " << fifer::fmt(decode_model.r_squared(), 4) << ")\n";

  // MET at the reference input size (10 frames per request).
  const double decode_met = decode_model.predict(10.0);

  // ---- 2. register the services with their profiled means. ----
  // (Production code would profile each; we fit DECODE above and take the
  //  others' profiled means as given.)
  auto services = fifer::MicroserviceRegistry::djinn_tonic();
  services.add({"DECODE", "ffmpeg", "video", decode_met, 2.0, 384, 0.5, 350, 0});
  services.add({"OBJDET", "YOLOv3", "image", 62.0, 5.0, 768, 0.5, 560, 240});
  services.add({"POLICY", "rules", "nlp", 3.0, 0.4, 256, 0.5, 200, 10});

  fifer::ApplicationChain moderation{
      "VideoModeration", {"DECODE", "OBJDET", "POLICY"}, slo_ms, 40.0, {}};

  auto apps = fifer::ApplicationRegistry::paper_chains();
  apps.add(moderation);

  // ---- 3. inspect what Fifer derives from the profile. ----
  fifer::Table derived("derived scheduling profile (SLO = " +
                       fifer::fmt(slo_ms, 0) + " ms)");
  derived.set_columns({"stage", "exec_ms", "slack_ms(prop)", "B_size"});
  const auto slack =
      fifer::allocate_slack(moderation, services, fifer::SlackPolicy::kProportional);
  const auto batches =
      fifer::batch_sizes(moderation, services, fifer::SlackPolicy::kProportional, 64);
  for (std::size_t i = 0; i < moderation.stages.size(); ++i) {
    derived.add_row({moderation.stages[i],
                     fifer::fmt(services.at(moderation.stages[i]).mean_exec_ms, 1),
                     fifer::fmt(slack[i], 1), std::to_string(batches[i])});
  }
  derived.print(std::cout);
  std::cout << "total slack: "
            << fifer::fmt(moderation.total_slack_ms(services), 0) << " ms\n\n";

  // ---- 4. run it under Bline and Fifer. ----
  // NOTE: the stock registries only know the paper's chains, so we build
  // ExperimentParams-compatible state by registering the app in a mix.
  fifer::Table t("VideoModeration under Bline vs Fifer");
  t.set_columns({"policy", "SLO_ok_%", "median_ms", "P99_ms", "containers"});
  for (const auto& rm : {fifer::RmConfig::bline(), fifer::RmConfig::fifer()}) {
    fifer::ExperimentParams params;
    params.rm = rm;
    params.rm.idle_timeout_ms = fifer::minutes(1.0);
    params.mix = fifer::WorkloadMix("custom", {{"VideoModeration", 1.0}});
    params.trace = fifer::poisson_trace(duration_s, lambda);
    params.trace_name = "poisson";
    params.seed = seed;
    params.warmup_ms = fifer::seconds(60.0);
    params.train.epochs = 10;
    params.services = services;
    params.applications = apps;

    const auto r = fifer::run_experiment(std::move(params));
    t.add_row({rm.name, fifer::fmt(100.0 - r.slo_violation_pct(), 2),
               fifer::fmt(r.response_ms.median(), 0),
               fifer::fmt(r.response_ms.p99(), 0),
               std::to_string(r.containers_spawned)});
  }
  t.print(std::cout);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
