#include "runtime/wall_driver.hpp"

#include <algorithm>
#include <utility>

namespace fifer {

namespace {

const LockClass& runtime_state_lock_class() {
  static const LockClass cls{"runtime.state", sync::lock_rank::kRuntimeState};
  return cls;
}

}  // namespace

WallDriver::WallDriver(double time_scale)
    : mu_(&runtime_state_lock_class()), clock_(time_scale) {}

void WallDriver::at(SimTime when, EventQueue::Callback cb) {
  // The queue refuses times before its watermark (the last fired deadline);
  // on the wall clock such a time is simply overdue.
  queue_.schedule(std::max(when, queue_.watermark()), std::move(cb));
  if (sleeping_) {
    ++wake_generation_;
    cv_.notify_all();
  }
}

void WallDriver::after(SimDuration delay, EventQueue::Callback cb) {
  at(now() + std::max(0.0, delay), std::move(cb));
}

void WallDriver::every(SimDuration period, std::function<void(SimTime)> cb) {
  const SimDuration p = std::max(period, 1e-9);
  arm(std::make_shared<Tick>(Tick{p, std::move(cb)}), now() + p);
}

void WallDriver::arm(std::shared_ptr<Tick> tick, SimTime when) {
  at(when, [this, tick, when]() FIFER_NO_THREAD_SAFETY_ANALYSIS {
    tick->cb(now());
    // Skip-missed-ticks: re-arm one period on, or now if that has passed.
    arm(tick, std::max(when + tick->period, now()));
  });
}

void WallDriver::wake() {
  MutexLock lock(&mu_);
  ++wake_generation_;
  cv_.notify_all();
}

std::uint64_t WallDriver::run(const std::function<bool()>& done,
                              LiveClock::WallTime hard_deadline) {
  std::uint64_t fired = 0;
  MutexLock lock(&mu_);
  while (!done()) {
    const LiveClock::WallTime wall = LiveClock::WallClock::now();
    if (wall >= hard_deadline) break;
    LiveClock::WallTime until = hard_deadline;
    if (!queue_.empty()) {
      const LiveClock::WallTime due = clock_.wall_deadline(queue_.next_time());
      if (due <= wall) {
        queue_.pop().callback();
        ++fired;
        continue;
      }
      until = std::min(due, hard_deadline);
    }
    const std::uint64_t gen = wake_generation_;
    sleeping_ = true;
    while (wake_generation_ == gen) {
      if (cv_.wait_until(lock, until) == std::cv_status::timeout) break;
    }
    sleeping_ = false;
  }
  return fired;
}

}  // namespace fifer
