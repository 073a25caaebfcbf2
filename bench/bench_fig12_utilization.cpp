// Figure 12 — the sources of Fifer's improvement:
//   (a) average number of jobs executed per container (JPC/RPC) for each IPA
//       stage under each RM (container utilization), and
//   (b) the cumulative number of live containers sampled over time.
//
// Expected shape: Fifer has the highest requests-per-container everywhere;
// RScale and Fifer track the request rate while Bline balloons.

#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/plot.hpp"

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  fifer::bench::BenchSettings s = fifer::bench::BenchSettings::from_config(cfg);
  s.duration_s = cfg.get_double("duration_s", 1200.0);
  s.lambda = cfg.get_double("lambda", 50.0);
  const std::string csv_path = cfg.get_string("csv", "");
  const fifer::RateTrace trace = fifer::bench::prototype_trace(cfg, s);
  const std::size_t jobs = fifer::bench::bench_jobs(cfg);
  fifer::exit_on_unknown_keys(cfg);

  auto base = fifer::bench::make_params(
      fifer::RmConfig::bline(), fifer::WorkloadMix::heavy(),
      trace, "prototype", s,
      fifer::bench::prototype_cluster());
  const auto results = fifer::bench::run_paper_sweep(
      std::move(base), s, jobs);

  fifer::Table rpc("Figure 12a — jobs executed per container (IPA stages)");
  rpc.set_columns({"policy", "stage1_ASR", "stage2_NLP", "stage3_QA", "mean_all"});
  for (const auto& r : results) {
    rpc.add_row(r.policy,
                {r.stages.at("ASR").requests_per_container(),
                 r.stages.at("NLP").requests_per_container(),
                 r.stages.at("QA").requests_per_container(), r.mean_rpc()},
                1);
  }
  rpc.print(std::cout);

  std::cout << "\n";
  fifer::Table tl("Figure 12b — live containers over time (sampled)");
  std::vector<std::string> head{"t_s"};
  for (const auto& r : results) head.push_back(r.policy);
  tl.set_columns(head);
  const std::size_t samples = results[0].timeline.size();
  const std::size_t stride = std::max<std::size_t>(1, samples / 20);
  for (std::size_t i = 0; i < samples; i += stride) {
    std::vector<std::string> row{
        fifer::fmt(fifer::to_seconds(results[0].timeline[i].time), 0)};
    for (const auto& r : results) {
      const auto& sample = r.timeline[std::min(i, r.timeline.size() - 1)];
      row.push_back(std::to_string(sample.active_containers +
                                   sample.provisioning_containers));
    }
    tl.add_row(row);
  }
  tl.print(std::cout);

  std::cout << "\n";
  fifer::LineChart chart("Figure 12b — live containers over time", 72, 14);
  for (const auto& r : results) {
    std::vector<double> series;
    series.reserve(r.timeline.size());
    for (const auto& sample : r.timeline) {
      series.push_back(static_cast<double>(sample.active_containers +
                                           sample.provisioning_containers));
    }
    chart.add_series(r.policy, std::move(series));
  }
  chart.print(std::cout);

  std::cout << "\nPaper check: Fifer's RPC tops every stage (fewest containers\n"
               "for the same work); Bline/BPred's non-batching RPC collapses on\n"
               "the short stage (NLP).\n";

  if (!csv_path.empty()) {
    fifer::CsvWriter csv(csv_path, {"policy", "t_s", "containers"});
    for (const auto& r : results) {
      for (const auto& sample : r.timeline) {
        csv.write_row({r.policy, fifer::fmt(fifer::to_seconds(sample.time), 1),
                       std::to_string(sample.active_containers +
                                      sample.provisioning_containers)});
      }
    }
    std::cout << "full timelines written to " << csv_path << "\n";
  }
  return 0;
}
