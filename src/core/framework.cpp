#include "core/framework.hpp"

#include <algorithm>
#include <memory>
#include <vector>

namespace fifer {

FiferFramework::FiferFramework(ExperimentParams params)
    : ChainEngine(std::move(params)) {
  sim_.set_profiler(profiler());
}

ExperimentResult FiferFramework::run() {
  start_offline();

  // --- arrival plan; fed lazily so the event queue stays small. ---
  Rng arrival_rng = rng().split(0xA221);
  const std::vector<Arrival> arrivals = generate_arrivals(
      params().trace, params().mix, arrival_rng, params().input_scale_jitter);
  // The pump captures only a weak_ptr to itself — a strong self-capture
  // would be a shared_ptr cycle and leak; the pending event holds the only
  // strong ref, so the pump dies with its last scheduled occurrence.
  auto pump = std::make_shared<std::function<void(std::size_t)>>();
  *pump = [this, &arrivals,
           weak = std::weak_ptr<std::function<void(std::size_t)>>(pump)](
              std::size_t i) {
    if (i >= arrivals.size()) return;
    submit_job(arrivals[i]);
    if (i + 1 < arrivals.size()) {
      if (auto self = weak.lock()) {
        sim_.at(arrivals[i + 1].time, [self, i] { (*self)(i + 1); });
      }
    }
  };
  SimTime end_of_arrivals = 0.0;
  if (!arrivals.empty()) {
    sim_.at(arrivals.front().time, [pump] { (*pump)(0); });
    end_of_arrivals = arrivals.back().time;
  }
  install_ticks();

  // --- main loop: run until every submitted job completes (or a hard
  // deadline well past the trace end, as a hang backstop). ---
  const SimTime trace_end = std::max(params().trace.duration_ms(), end_of_arrivals);
  const SimTime hard_end = trace_end + minutes(10.0);
  while (sim_.now() < hard_end) {
    sim_.run_until(std::min(sim_.now() + seconds(10.0), hard_end));
    // The experiment covers the whole trace (including zero-rate tails —
    // that is where scale-down and power-down behaviour shows), then drains.
    const bool arrivals_done = sim_.now() >= trace_end;
    if (arrivals_done && all_jobs_completed()) break;
  }

  ExperimentResult result = finish(sim_.now());
  result.sim_events = sim_.events_executed();
  return result;
}

ExperimentResult run_experiment(ExperimentParams params) {
  FiferFramework fw(std::move(params));
  return fw.run();
}

}  // namespace fifer
