#pragma once

// Forwarding decorators that time every call an executor (FiferFramework or
// LiveRuntime) makes into the policy strategies. They are installed from
// outside the program, through the public ExperimentParams::policy_factory
// hook: the factory builds the strategies RmConfig::assemble would build and
// wraps the Scaler, Scheduler and Placer. The wrapped Scaler receives a
// forwarding PolicyContext, so the container spawns and terminations it
// asks for and every periodic tick it registers are timed too.
//
// All decorated calls happen on one thread at a time: the simulator is
// single-threaded, and the live runtime makes every strategy call under
// its state lock. One span stack per run is therefore enough.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/experiment_params.hpp"
#include "core/policy/policy_context.hpp"
#include "core/policy/policy_engine.hpp"
#include "core/policy/scaler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock.
double steady_seconds();

/// Nested span accounting. A span's self time is its duration minus the
/// time covered by the spans that began and ended inside it.
class SpanStack {
 public:
  using NowFn = double (*)();

  explicit SpanStack(NowFn now = &steady_seconds) : now_(now) {}

  struct Span {
    double total_s = 0.0;
    double self_s = 0.0;
  };

  void begin() { frames_.push_back({now_(), 0.0}); }
  /// Ends the innermost open span.
  Span end();

  /// Summed duration of every outermost span ended so far.
  double top_level_s() const { return top_level_s_; }

 private:
  struct Frame {
    double start = 0.0;
    double child_s = 0.0;
  };
  NowFn now_;
  std::vector<Frame> frames_;
  double top_level_s_ = 0.0;
};

/// Call count plus summed and largest self time of one kind of call.
struct Timed {
  std::uint64_t calls = 0;
  double self_s = 0.0;
  double max_s = 0.0;

  void add(double s) {
    ++calls;
    self_s += s;
    if (s > max_s) max_s = s;
  }
};

/// Everything the decorators of one run record.
struct LayerStats {
  // Scaler::on_start: predictor pre-training and static pools.
  double on_start_s = 0.0;
  Clock::time_point on_start_end{};
  bool started = false;
  // Scaler hooks, self time (child spawns and terminations excluded).
  Timed arrival;
  Timed starved;
  Timed tick;
  // Policy-initiated cluster calls.
  Timed spawn;
  std::uint64_t spawn_failed = 0;
  Timed terminate;
  // Placer::select_container.
  Timed select;
  std::uint64_t select_hits = 0;
  std::uint64_t fleet_samples = 0;
  double fleet_sum = 0.0;
  // Scheduler::priority_key.
  Timed key;
  /// Host time the probe spent on its own fleet sampling (outside spans).
  double probe_s = 0.0;
};

/// The recorder one run's decorators share.
struct Probe {
  explicit Probe(bool traced) : traced(traced) {}

  const bool traced;
  LayerStats stats;
  SpanStack spans;
  /// The outermost scaler the factory built, so set-up can be timed on an
  /// executor that is never run.
  fifer::Scaler* scaler = nullptr;
  /// Invoked once on_start has returned; the serve workload starts its
  /// client from here.
  std::function<void()> on_setup_done;
};

/// A policy factory that assembles `params.rm` and decorates it. With
/// `probe->traced` false only Scaler::on_start is timed (three clock reads
/// per run) and every other call is forwarded untouched.
std::function<fifer::PolicyEngine(fifer::ExperimentParams&)> probed_factory(
    std::shared_ptr<Probe> probe);

}  // namespace perfbench
