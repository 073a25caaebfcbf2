#pragma once

// Shared scaffolding for the figure-regeneration benches.
//
// Every bench binary regenerates one table/figure of the paper. The paper's
// cluster experiments ran on 80 cores (prototype) and a simulated 2500-core
// cluster; we scale arrival rates and durations down so each bench runs in
// seconds on one laptop core while preserving the ratios that drive the
// results (peak-to-median load, slack-to-exec, cold-start-to-exec). Every
// knob is overridable from the command line as key=value.

#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/framework.hpp"
#include "core/sweep.hpp"
#include "workload/generators.hpp"

namespace fifer::bench {

/// The paper's prototype: 5 x 16 = 80 compute cores (Table 1).
inline ClusterSpec prototype_cluster() {
  ClusterSpec spec;
  spec.node_count = 5;
  spec.cores_per_node = 16.0;
  return spec;
}

/// Laptop-scale stand-in for the paper's 2500-core simulation cluster:
/// 16 x 16 = 256 cores, driven by rate-scaled traces (see below).
inline ClusterSpec simulation_cluster() {
  ClusterSpec spec;
  spec.node_count = 16;
  spec.cores_per_node = 16.0;
  return spec;
}

/// Common experiment knobs parsed from the command line.
struct BenchSettings {
  std::uint64_t seed = 1;
  double duration_s = 600.0;
  double warmup_s = 100.0;
  double lambda = 20.0;          ///< Poisson rate for prototype benches.
  double trace_scale = 1.0;      ///< Extra user scaling on trace rates.
  std::size_t train_epochs = 30;
  double idle_timeout_s = 120.0;
  /// Input-size variability (paper §2.2.2: exec scales linearly with input
  /// size); the prototype experiments serve user-submitted inputs, so some
  /// spread is the realistic default.
  double input_jitter = 0.15;

  static BenchSettings from_config(const Config& cfg) {
    BenchSettings s;
    s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    s.duration_s = cfg.get_double("duration_s", s.duration_s);
    s.warmup_s = cfg.get_double("warmup_s", s.warmup_s);
    s.lambda = cfg.get_double("lambda", s.lambda);
    s.trace_scale = cfg.get_double("trace_scale", 1.0);
    s.train_epochs = static_cast<std::size_t>(cfg.get_int("epochs", 30));
    s.idle_timeout_s = cfg.get_double("idle_timeout_s", s.idle_timeout_s);
    s.input_jitter = cfg.get_double("input_jitter", s.input_jitter);
    return s;
  }
};

/// Builds the baseline experiment parameter block shared by the benches.
inline ExperimentParams make_params(const RmConfig& rm, const WorkloadMix& mix,
                                    RateTrace trace, const std::string& trace_name,
                                    const BenchSettings& s,
                                    const ClusterSpec& cluster) {
  ExperimentParams p;
  p.rm = rm;
  p.rm.idle_timeout_ms = seconds(s.idle_timeout_s);
  p.mix = mix;
  p.trace = std::move(trace);
  p.trace_name = trace_name;
  p.cluster = cluster;
  p.seed = s.seed;
  p.warmup_ms = seconds(s.warmup_s);
  p.train.epochs = s.train_epochs;
  p.input_scale_jitter = s.input_jitter;
  return p;
}

/// WITS-shaped trace at bench scale: the published trace averages ~300 req/s
/// with 1200 req/s spikes; we run it at 1/5 scale by default.
inline RateTrace bench_wits(const BenchSettings& s, std::uint64_t salt = 0xA11) {
  Rng rng(s.seed ^ salt);
  WitsParams p;
  p.duration_s = s.duration_s;
  p.base_rps = 47.0 * s.trace_scale;
  p.walk_sigma = 3.6 * s.trace_scale;
  p.spike_peak_rps = 240.0 * s.trace_scale;
  p.noise_sigma = 2.4 * s.trace_scale;
  return wits_trace(p, rng);
}

/// Wiki-shaped trace at bench scale: published average ~1500 req/s, diurnal;
/// we run at 1/10 scale by default (still 2.5x the WITS average, as in the
/// paper).
inline RateTrace bench_wiki(const BenchSettings& s, std::uint64_t salt = 0xB22) {
  Rng rng(s.seed ^ salt);
  WikiParams p;
  p.duration_s = s.duration_s;
  p.average_rps = 150.0 * s.trace_scale;
  p.day_period_s = std::max(120.0, s.duration_s / 3.0);
  return wiki_trace(p, rng);
}

/// Trace for the §6.1 *prototype* experiments: Poisson with slow mean drift
/// by default (what a long-running load generator produces), switchable via
/// trace=poisson|drift|wits. Reads `lambda` and `drift` from the config.
inline RateTrace prototype_trace(const Config& cfg, const BenchSettings& s) {
  const std::string kind = cfg.get_string("trace", "drift");
  Rng rng(s.seed ^ 0xF18);
  if (kind == "poisson") return poisson_trace(s.duration_s, s.lambda);
  if (kind == "drift") {
    return modulated_poisson_trace(s.duration_s, s.lambda,
                                   cfg.get_double("drift", 0.8), rng);
  }
  if (kind == "wits") return bench_wits(s);
  throw std::invalid_argument("unknown trace kind: " + kind);
}

/// Runs one experiment and prints a one-line progress note to stderr so the
/// long multi-run benches show life.
inline ExperimentResult run_logged(ExperimentParams params) {
  std::cerr << "  running " << params.rm.name << " / " << params.mix.name()
            << " / " << params.trace_name << " ..." << std::flush;
  ExperimentResult r = run_experiment(std::move(params));
  std::cerr << " done (" << r.jobs_completed << " jobs)\n";
  return r;
}

/// Divides `v` by `base`, guarding the zero-baseline case.
inline double norm(double v, double base) { return base > 0.0 ? v / base : 0.0; }

/// Worker threads for the sweep-driven benches: `jobs=N` on the command
/// line, defaulting to the hardware concurrency; jobs=1 forces the
/// sequential reference path. Either way the results are byte-identical —
/// only wall-clock differs.
inline std::size_t bench_jobs(const Config& cfg) {
  const std::int64_t n =
      cfg.get_int("jobs", static_cast<std::int64_t>(default_jobs()));
  return n < 1 ? 1 : static_cast<std::size_t>(n);
}

/// The paper's five RMs with the bench's idle-timeout knob applied. Sweeps
/// swap `params.rm` wholesale, so per-policy knob overrides must ride on
/// each RmConfig rather than on the base params.
inline std::vector<RmConfig> paper_policies(const BenchSettings& s) {
  std::vector<RmConfig> rms = RmConfig::paper_policies();
  for (auto& rm : rms) rm.idle_timeout_ms = seconds(s.idle_timeout_s);
  return rms;
}

/// Start-of-run stderr notes for sweeps — the parallel analogue of
/// run_logged. Completions interleave arbitrarily under jobs>1, so only
/// starts are logged.
inline std::function<void(const std::string&)> sweep_progress() {
  return [](const std::string& label) {
    std::cerr << "  running " << label << " ...\n";
  };
}

/// Runs the paper's five policies over one workload (`base` carries the
/// mix, trace, and cluster; its rm is ignored) on `jobs` threads. Results
/// come back in the paper's comparison order.
inline std::vector<ExperimentResult> run_paper_sweep(ExperimentParams base,
                                                     const BenchSettings& s,
                                                     std::size_t jobs) {
  PolicySweep sweep(std::move(base));
  for (auto& rm : paper_policies(s)) sweep.add(std::move(rm));
  return sweep.jobs(jobs).on_progress(sweep_progress()).run();
}

}  // namespace fifer::bench
