#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sync.hpp"
#include "workload/arrival.hpp"

namespace fifer {

class LiveRuntime;
struct LiveRunReport;
struct ExperimentParams;

/// The arrival plan a run with these params replays: the same RNG split
/// (0xA221, the first draw from the experiment seed) the simulator and the
/// live gateway take, so any process — notably the load generator on the
/// other end of a socket — can materialize the byte-identical request
/// sequence from the params alone.
std::vector<Arrival> materialize_arrival_plan(const ExperimentParams& params);

/// The live runtime's front door, mirroring the prototype's load-generator +
/// gateway pair: it materializes the arrival plan from the trace (same RNG
/// split as the simulator, so a sim/live pair replays the *identical*
/// request sequence), anchors the compressed clock, replays arrivals as
/// wall-driver events in scaled real time, registers the periodic policy
/// ticks and housekeeping, and supervises the end of the run — graceful
/// drain once the trace is exhausted, bounded shutdown when the wall budget
/// runs out first.
///
/// With `LiveOptions::external_source` set, the pump is skipped entirely:
/// the gateway opens the runtime's ExternalGate, lets the source (the socket
/// front-end) submit arrivals, and drains once the source reports finished.
///
/// The gateway drives; the LiveRuntime decides. It is constructed by
/// LiveRuntime::run() on the calling thread — the wall driver's thread —
/// and lives for exactly one run.
class Gateway {
 public:
  explicit Gateway(LiveRuntime& rt) : rt_(rt) {}

  /// Replays the trace to completion (or the wall budget) and returns the
  /// assembled report. Called once, on the thread that owns the run.
  LiveRunReport run();

 private:
  /// Submits arrival `i` and schedules arrival `i + 1`. Self-scheduling, so
  /// the driver holds at most one pending arrival at a time — the live
  /// analogue of the simulator's lazy arrival pump. Runs as a driver event.
  void pump(std::size_t i) FIFER_NO_THREAD_SAFETY_ANALYSIS;

  /// Serving mode: arrivals come from opts.external_source via the gate.
  LiveRunReport run_external();

  /// Shared post-run tail, under the driver lock: folds the metrics and
  /// builds the report. `drained` = every admitted request completed and no
  /// more are coming.
  LiveRunReport assemble_report(std::uint64_t fired, bool drained)
      FIFER_NO_THREAD_SAFETY_ANALYSIS;

  LiveRuntime& rt_;
  std::vector<Arrival> arrivals_;
};

}  // namespace fifer
