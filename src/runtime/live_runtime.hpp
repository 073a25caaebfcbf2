#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "core/chain_engine.hpp"
#include "core/experiment_params.hpp"
#include "runtime/clock.hpp"
#include "runtime/external_source.hpp"
#include "runtime/wall_driver.hpp"

namespace fifer {

class Gateway;

/// Knobs specific to live execution; everything about the *experiment*
/// (workload, policies, cluster) still comes from ExperimentParams, so a
/// sim/live pair differs only in these.
struct LiveOptions {
  /// Simulated ms per wall ms. 100 compresses the paper's 1000 ms SLO to a
  /// 10 ms wall budget and its 10 s monitoring interval to 100 ms of wall
  /// time; 1 is real time.
  double time_scale = 100.0;
  /// Graceful-drain window after the trace ends: in-flight requests get this
  /// much *simulated* time to finish before the gateway gives up. Matches
  /// the simulator's hang backstop.
  SimDuration drain_grace_ms = minutes(10.0);
  /// Hard wall-clock budget for the whole run; <= 0 derives it from the
  /// trace length, drain grace, and time scale. The bounded-shutdown
  /// guarantee: run() returns within this budget even if the workload
  /// wedges, with `drained = false` in the report.
  double max_wall_seconds = 0.0;
  /// When set, the run serves *externally submitted* arrivals (the socket
  /// front-end) instead of replaying the trace plan: the gateway skips the
  /// arrival pump, opens the runtime's ExternalGate, and drains once the
  /// source reports finished(). Non-owning; must outlive the run. In this
  /// mode the hard wall budget is `max_wall_seconds` (default 60 s when
  /// unset — a serving run has no trace length to derive one from).
  ExternalArrivalSource* external_source = nullptr;
};

/// What a live run produced: the same ExperimentResult the simulator emits,
/// plus live-execution facts the fidelity harness and CI budget checks read.
struct LiveRunReport {
  ExperimentResult result;
  /// True when every submitted request completed before shutdown; false
  /// means the hard wall deadline cut the run short.
  bool drained = false;
  /// Simulated duration of the run (== result window), for convenience.
  SimTime sim_duration_ms = 0.0;
  /// Wall seconds the driving loop spent between clock anchor and shutdown.
  double wall_seconds = 0.0;
  double time_scale = 1.0;
  /// Events the wall driver fired: arrivals, bus deliveries, cold starts,
  /// service times, ticks and housekeeping.
  std::uint64_t timer_events = 0;
  /// Threads that executed the run: the wall driver's fixed count,
  /// independent of the fleet size.
  std::size_t peak_worker_threads = 0;
};

/// The live-mode executor: the orchestration core (ChainEngine) on the
/// wall-paced `WallDriver` instead of the discrete-event `Simulation`. The
/// PolicyContext surface, the task path and the PolicyEngine strategies are
/// the simulator's, call for call; only the clock differs. Containers are
/// the simulator's passive `Container`s, and their cold starts and service
/// times are driver events on (compressed) wall time.
///
/// Concurrency: the driver's one thread fires every event under the
/// driver's lock (`runtime.state`, rank kRuntimeState). The only other
/// thread that enters is the network I/O thread of a serving run, through
/// `ExternalGate::submit`, which takes the same lock. Policies never see
/// concurrency, exactly as on the simulator's event loop.
///
/// One instance runs one experiment, like the framework:
///
///   LiveRunReport r = LiveRuntime(params, {.time_scale = 100}).run();
class LiveRuntime final : public ChainEngine, public ExternalGate {
 public:
  LiveRuntime(ExperimentParams params, LiveOptions opts);

  /// Replays the trace in scaled real time and returns the collected
  /// metrics. Single-shot. Returns within the wall budget (see LiveOptions).
  LiveRunReport run();

  const LiveClock& clock() const { return driver_.clock(); }

  // --- driver interface (PolicyContext half) ---
  SimTime now() const override { return driver_.now(); }
  void every(SimDuration period_ms, std::function<void(SimTime)> cb) override
      FIFER_NO_THREAD_SAFETY_ANALYSIS {
    driver_.every(period_ms, std::move(cb));
  }

  // --- ExternalGate (called from the front-end's I/O thread) ---
  Admit submit(const ExternalRequest& req) override;
  void wake() override { driver_.wake(); }

 protected:
  void after(SimDuration delay, EventQueue::Callback cb) override
      FIFER_NO_THREAD_SAFETY_ANALYSIS {
    driver_.after(delay, std::move(cb));
  }
  /// External mode: emits the request's network span and hands the
  /// completion back to the source, which writes the response.
  void job_completed(const Job& job) override FIFER_NO_THREAD_SAFETY_ANALYSIS;

 private:
  friend class Gateway;  // the run driver: arrival pump, drain, shutdown

  // Engine entry points run on the driver thread under the driver lock, or
  // (before the clock anchor) single-threaded, so the engine needs no
  // annotations; the driver-side calls above are exempt for that reason.
  LiveOptions opts_;
  WallDriver driver_;
  /// Registry insertion order -> app name: the wire protocol's app_index
  /// numbering. Built at construction, immutable afterwards.
  std::vector<std::string> app_names_;
  /// Parallel to app_names_: whether every stage of the chain is
  /// provisioned (stage pools come from the workload *mix*, which may be a
  /// subset of the registry). submit() rejects unservable apps as
  /// kUnknownApp instead of crashing in stage_of().
  std::vector<bool> app_servable_;
  /// External-mode bookkeeping: the original ExternalRequest of job id `i`
  /// at index i (external jobs are the only jobs, and ids are sequential).
  std::vector<ExternalRequest> external_meta_ FIFER_GUARDED_BY(driver_.mu());
  /// Gate state: only true between the gateway opening the gate (external
  /// mode, post-anchor) and drain/teardown.
  bool accepting_external_ FIFER_GUARDED_BY(driver_.mu()) = false;
  SimTime trace_end_ FIFER_GUARDED_BY(driver_.mu()) = 0.0;
  bool arrivals_done_ FIFER_GUARDED_BY(driver_.mu()) = false;
  /// Only touched by run() on the driving thread before any concurrency.
  bool ran_ = false;
};

/// Convenience wrapper: builds the live runtime and runs it.
LiveRunReport run_live(ExperimentParams params, LiveOptions opts = {});

}  // namespace fifer
