// Figure 7 — the job request-arrival traces (WITS and Wiki) plus the
// experimental setup tables:
//   Table 1/2 — hardware & software configuration (here: the simulated
//               cluster and framework configuration), and
//   Table 5  — the three workload mixes ordered by available slack.
//
// Expected shape: WITS wanders around a moderate average with unpredictable
// spikes to ~4-5x; Wiki is high-volume with recurring (diurnal/weekly)
// periodicity. The paper's Wiki average is ~5x the WITS average.

#include <iostream>

#include "bench_util.hpp"
#include "workload/analysis.hpp"

namespace {

void print_trace_profile(const char* name, const fifer::RateTrace& t,
                         std::size_t buckets = 24) {
  fifer::Table series(std::string("Figure 7 — ") + name +
                      " trace (bucket means, req/s)");
  series.set_columns({"t_s", "rate_rps", "bar"});
  const std::size_t per_bucket = std::max<std::size_t>(1, t.windows() / buckets);
  for (std::size_t b = 0; b + per_bucket <= t.windows(); b += per_bucket) {
    double acc = 0.0;
    for (std::size_t i = b; i < b + per_bucket; ++i) acc += t.rate(i);
    const double mean = acc / static_cast<double>(per_bucket);
    const auto bar_len =
        static_cast<std::size_t>(40.0 * mean / std::max(1.0, t.peak_rate()));
    series.add_row({fifer::fmt(static_cast<double>(b) * t.window_seconds(), 0),
                    fifer::fmt(mean, 1), std::string(bar_len, '#')});
  }
  series.print(std::cout);

  const fifer::TraceProfile p = fifer::profile_trace(t);
  std::cout << name << ": avg " << fifer::fmt(p.mean_rps, 1) << " req/s, median "
            << fifer::fmt(p.median_rps, 1) << ", peak " << fifer::fmt(p.peak_rps, 1)
            << " (peak/median " << fifer::fmt(p.peak_to_median, 1)
            << "x), dispersion " << fifer::fmt(p.index_of_dispersion, 1)
            << ", roughness " << fifer::fmt(p.roughness, 3);
  if (p.dominant_period > 0) {
    std::cout << ", period ~" << p.dominant_period << " s (strength "
              << fifer::fmt(p.period_strength, 2) << ")";
  }
  std::cout << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  fifer::bench::BenchSettings s = fifer::bench::BenchSettings::from_config(cfg);
  s.duration_s = cfg.get_double("duration_s", 1800.0);
  fifer::exit_on_unknown_keys(cfg);

  print_trace_profile("WITS", fifer::bench::bench_wits(s));
  print_trace_profile("Wiki", fifer::bench::bench_wiki(s));

  // Tables 1 & 2 — the simulated setup standing in for the paper's testbed.
  const auto proto = fifer::bench::prototype_cluster();
  const auto sim = fifer::bench::simulation_cluster();
  fifer::Table hw("Tables 1-2 — simulated cluster & framework configuration");
  hw.set_columns({"parameter", "prototype", "large-scale sim"});
  hw.add_row({"nodes", std::to_string(proto.node_count), std::to_string(sim.node_count)});
  hw.add_row({"cores/node", fifer::fmt(proto.cores_per_node, 0),
              fifer::fmt(sim.cores_per_node, 0)});
  hw.add_row({"total cores", fifer::fmt(proto.total_cores(), 0),
              fifer::fmt(sim.total_cores(), 0)});
  hw.add_row({"memory/node (GB)", fifer::fmt(proto.memory_per_node_mb / 1024.0, 0),
              fifer::fmt(sim.memory_per_node_mb / 1024.0, 0)});
  hw.add_row({"container CPU", "0.5 cores", "0.5 cores"});
  hw.add_row({"idle power (W)", fifer::fmt(proto.power.base_watts, 0),
              fifer::fmt(sim.power.base_watts, 0)});
  hw.add_row({"per-core power (W)", fifer::fmt(proto.power.per_core_active_watts, 2),
              fifer::fmt(sim.power.per_core_active_watts, 2)});
  hw.print(std::cout);
  std::cout << "\n";

  // Table 5 — workload mixes ordered by increasing available slack.
  const auto services = fifer::MicroserviceRegistry::djinn_tonic();
  const auto apps = fifer::ApplicationRegistry::paper_chains();
  fifer::Table mixes("Table 5 — workload mixes (by increasing slack)");
  mixes.set_columns({"workload", "query mix", "avg slack (ms)"});
  for (const auto* name : {"heavy", "medium", "light"}) {
    const auto mix = fifer::WorkloadMix::by_name(name);
    std::string apps_list;
    for (std::size_t i = 0; i < mix.entries().size(); ++i) {
      if (i > 0) apps_list += ", ";
      apps_list += mix.entries()[i].app;
    }
    mixes.add_row({name, apps_list,
                   fifer::fmt(mix.average_slack_ms(apps, services), 0)});
  }
  mixes.print(std::cout);

  std::cout << "\nPaper check: WITS peak/median ~4-5x with irregular bursts;\n"
               "Wiki ~5x the WITS average with smooth recurring cycles; the\n"
               "heavy mix has the least slack, light the most.\n";
  return 0;
}
