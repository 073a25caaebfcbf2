#pragma once

#include <functional>

#include "core/chain_engine.hpp"
#include "core/experiment_params.hpp"
#include "sim/simulation.hpp"

namespace fifer {

/// The simulator: the orchestration core (ChainEngine) on the discrete-event
/// `Simulation` clock — an event-driven replica of the paper's prototype,
/// as the authors built for their own large-scale evaluation (§5.2).
///
/// One instance runs one experiment:
///
///   ExperimentParams p;
///   p.trace = poisson_trace(300, 50);
///   ExperimentResult r = FiferFramework(p).run();
class FiferFramework final : public ChainEngine {
 public:
  explicit FiferFramework(ExperimentParams params);

  /// Runs the experiment to completion and returns the collected metrics.
  ExperimentResult run();

  SimTime now() const override { return sim_.now(); }
  void every(SimDuration period_ms, std::function<void(SimTime)> cb) override {
    sim_.every(period_ms, std::move(cb));
  }

 protected:
  void after(SimDuration delay, EventQueue::Callback cb) override {
    sim_.after(delay, std::move(cb));
  }

 private:
  Simulation sim_;
};

/// Convenience wrapper: builds the framework and runs it.
ExperimentResult run_experiment(ExperimentParams params);

}  // namespace fifer
