#include "runtime/gateway.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/check.hpp"
#include "common/sync.hpp"
#include "runtime/live_runtime.hpp"

namespace fifer {

std::vector<Arrival> materialize_arrival_plan(const ExperimentParams& params) {
  Rng rng(params.seed);
  Rng arrival_rng = rng.split(0xA221);
  return generate_arrivals(params.trace, params.mix, arrival_rng,
                           params.input_scale_jitter);
}

void Gateway::pump(std::size_t i) {
  rt_.submit_job(arrivals_[i]);
  if (i + 1 >= arrivals_.size()) {
    rt_.arrivals_done_ = true;
    return;
  }
  rt_.driver_.at(arrivals_[i + 1].time, [this, i] { pump(i + 1); });
}

LiveRunReport Gateway::run() {
  if (rt_.opts_.external_source != nullptr) return run_external();

  LiveClock::WallTime hard_deadline;
  {
    MutexLock lock(&rt_.driver_.mu());
    // Arrival plan: the same RNG split the simulator uses (and at the same
    // point in the seed's draw sequence — after Scaler::on_start), so a
    // sim/live pair with one seed replays the identical request sequence.
    Rng arrival_rng = rt_.rng().split(0xA221);
    const ExperimentParams& params = rt_.params();
    arrivals_ = generate_arrivals(params.trace, params.mix, arrival_rng,
                                  params.input_scale_jitter);
    const SimTime end_of_arrivals = arrivals_.empty() ? 0.0 : arrivals_.back().time;
    rt_.trace_end_ = std::max(params.trace.duration_ms(), end_of_arrivals);
    rt_.arrivals_done_ = arrivals_.empty();

    // Anchor simulated t = 0. Registration order matches the simulator's
    // determinism contract: arrival pump, then the scaler's ticks, then
    // housekeeping.
    rt_.driver_.start();
    if (!arrivals_.empty()) {
      rt_.driver_.at(arrivals_.front().time, [this] { pump(0); });
    }
    rt_.install_ticks();

    // Bounded shutdown: the hard wall deadline caps the run even if the
    // workload wedges. Derived budget = trace + drain grace on the scaled
    // clock, plus a fixed margin for scheduling noise.
    if (rt_.opts_.max_wall_seconds > 0.0) {
      hard_deadline = LiveClock::WallClock::now() +
                      std::chrono::nanoseconds(static_cast<std::int64_t>(
                          rt_.opts_.max_wall_seconds * 1e9));
    } else {
      hard_deadline = rt_.driver_.clock().wall_deadline(
                          rt_.trace_end_ + rt_.opts_.drain_grace_ms) +
                      std::chrono::seconds(2);
    }
  }

  // Drain condition: trace replayed to its end (zero-rate tails included —
  // that is where scale-down shows), every submitted request completed.
  // Checked by the driver, under its lock, before every event.
  const auto done = [this]() FIFER_NO_THREAD_SAFETY_ANALYSIS {
    return rt_.arrivals_done_ && rt_.now() >= rt_.trace_end_ &&
           rt_.all_jobs_completed();
  };
  const std::uint64_t fired = rt_.driver_.run(done, hard_deadline);

  MutexLock lock(&rt_.driver_.mu());
  return assemble_report(fired, rt_.arrivals_done_ && rt_.all_jobs_completed());
}

LiveRunReport Gateway::run_external() {
  ExternalArrivalSource* src = rt_.opts_.external_source;
  {
    MutexLock lock(&rt_.driver_.mu());
    // Consume the plan split anyway: the external twin of a replay run must
    // leave the experiment seed's draw sequence (cold starts, exec-time
    // sampling) exactly where the replay run leaves it.
    (void)rt_.rng().split(0xA221);
    rt_.arrivals_done_ = true;  // No planned arrivals in serving mode.
    rt_.trace_end_ = 0.0;
    rt_.accepting_external_ = true;
    rt_.driver_.start();
    rt_.install_ticks();
  }

  // A serving run has no trace length to derive a budget from: the hard
  // deadline is max_wall_seconds, defaulting to a minute of wall time.
  const double budget =
      rt_.opts_.max_wall_seconds > 0.0 ? rt_.opts_.max_wall_seconds : 60.0;
  const LiveClock::WallTime hard_deadline =
      LiveClock::WallClock::now() +
      std::chrono::nanoseconds(static_cast<std::int64_t>(budget * 1e9));

  // Open the front door. From here the source's I/O thread submits through
  // the gate concurrently with the driver loop below.
  src->start(rt_, rt_.driver_.clock());

  const auto done = [this, src]() FIFER_NO_THREAD_SAFETY_ANALYSIS {
    return src->finished() && rt_.all_jobs_completed();
  };
  const std::uint64_t fired = rt_.driver_.run(done, hard_deadline);

  // Close the gate before teardown: submissions racing the shutdown are
  // rejected as draining instead of landing in a finished run.
  {
    MutexLock lock(&rt_.driver_.mu());
    rt_.accepting_external_ = false;
  }
  src->stop();

  MutexLock lock(&rt_.driver_.mu());
  return assemble_report(fired, src->finished() && rt_.all_jobs_completed());
}

LiveRunReport Gateway::assemble_report(std::uint64_t fired, bool drained) {
  const SimTime end = rt_.now();
  LiveRunReport report;
  report.result = rt_.finish(end);
  report.drained = drained;
  report.sim_duration_ms = end;
  report.wall_seconds = (end / rt_.clock().scale()) / 1000.0;
  report.time_scale = rt_.clock().scale();
  report.timer_events = fired;
  report.peak_worker_threads = WallDriver::kThreads;
  return report;
}

}  // namespace fifer
