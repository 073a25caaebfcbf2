#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/sync.hpp"
#include "common/types.hpp"
#include "runtime/clock.hpp"
#include "sim/event_queue.hpp"

namespace fifer {

/// The live runtime's clock: the simulator's `EventQueue` paced by a
/// `LiveClock`. One thread — the one calling `run` — sleeps until the next
/// event's scaled wall deadline, then fires it. Everything in a live run is
/// such an event: arrival replay, event-bus deliveries, cold starts, service
/// times, the scaler's ticks and housekeeping. No thread per container.
///
/// Threading contract — one lock, `mu()` (rank `kRuntimeState`):
///  - `run` holds it while it fires callbacks and drops it only to sleep,
///    so callbacks (and the engine state they touch) are serialized with
///    any other thread that takes the lock — the network I/O thread's
///    `ExternalGate::submit`.
///  - `at` / `after` / `every` require the lock. Scheduling from outside
///    `run` (a submit while the driver sleeps) wakes it, so an event earlier
///    than the one it was sleeping toward is not missed.
///  - Same-deadline events fire in scheduling order (the EventQueue's
///    (time, sequence) order).
class WallDriver {
 public:
  /// The one thread a live run uses to execute, whatever the fleet size.
  static constexpr std::size_t kThreads = 1;

  /// `time_scale` = simulated ms per wall ms (see LiveClock).
  explicit WallDriver(double time_scale);

  WallDriver(const WallDriver&) = delete;
  WallDriver& operator=(const WallDriver&) = delete;

  Mutex& mu() FIFER_RETURN_CAPABILITY(mu_) { return mu_; }
  const LiveClock& clock() const { return clock_; }

  /// Anchors simulated t = 0 (see LiveClock::start). Events scheduled
  /// before the anchor — static pools' cold starts — count from it.
  void start() { clock_.start(); }

  SimTime now() const { return clock_.now_ms(); }

  /// Schedules `cb` at simulated time `when`; a time in the past fires on
  /// the next pass of the loop.
  void at(SimTime when, EventQueue::Callback cb) FIFER_REQUIRES(mu_);
  void after(SimDuration delay, EventQueue::Callback cb) FIFER_REQUIRES(mu_);

  /// Schedules `cb` every `period` simulated ms, first at now + period.
  /// When the loop falls behind (a callback overran the period), missed
  /// occurrences are skipped rather than replayed in a burst — a live
  /// monitoring tick wants "at this cadence", not "this many times".
  void every(SimDuration period, std::function<void(SimTime)> cb)
      FIFER_REQUIRES(mu_);

  /// Wakes `run` so it re-evaluates `done` (call after progress made off
  /// the driver thread, e.g. the last client finishing).
  void wake() FIFER_EXCLUDES(mu_);

  /// Fires events in deadline order on the calling thread until `done()`
  /// returns true (checked, under the lock, before every event and on every
  /// wakeup) or the wall deadline passes. Events still pending then are
  /// dropped with the driver. Returns the number of events fired.
  std::uint64_t run(const std::function<bool()>& done,
                    LiveClock::WallTime hard_deadline) FIFER_EXCLUDES(mu_);

  /// Scheduled events not yet fired (a periodic event counts as one).
  std::size_t pending() FIFER_REQUIRES(mu_) { return queue_.size(); }

 private:
  struct Tick {
    SimDuration period;
    std::function<void(SimTime)> cb;
  };
  void arm(std::shared_ptr<Tick> tick, SimTime when) FIFER_REQUIRES(mu_);

  Mutex mu_;
  CondVar cv_;
  LiveClock clock_;
  EventQueue queue_ FIFER_GUARDED_BY(mu_);
  /// Bumped by every wakeup, so a sleeping `run` tells one from a spurious
  /// return of the wait.
  std::uint64_t wake_generation_ FIFER_GUARDED_BY(mu_) = 0;
  /// True while `run` sleeps; only then does scheduling need to wake it.
  bool sleeping_ FIFER_GUARDED_BY(mu_) = false;
};

}  // namespace fifer
