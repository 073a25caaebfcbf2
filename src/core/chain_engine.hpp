#pragma once

#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/event_bus.hpp"
#include "common/rng.hpp"
#include "common/slab.hpp"
#include "core/app_profile.hpp"
#include "core/experiment_params.hpp"
#include "core/metrics.hpp"
#include "core/policy/policy_context.hpp"
#include "core/policy/policy_engine.hpp"
#include "core/stage.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "predict/window.hpp"
#include "sim/event_queue.hpp"
#include "workload/arrival.hpp"

namespace fifer {

/// The Fifer orchestration core, shared by both executors: an event-driven
/// replica of the paper's Brigade-on-Kubernetes prototype (Figure 5). The
/// engine is the *substrate* — it owns the cluster, per-stage state (global
/// queue + passive containers + load monitor), the job slab and the metrics
/// collector, and moves requests through their chains. Every
/// resource-management *decision* (fleet sizing, queue order, placement,
/// batch sizing) is delegated to the PolicyEngine strategies assembled from
/// `params.rm` (or a custom `params.policy_factory`), which the engine drives
/// through the PolicyContext hooks it implements.
///
/// Time is the one thing the engine does not own. It runs on a three-call
/// driver interface that each executor implements:
///
///   now()          current simulated ms (PolicyContext)
///   after(d, cb)   fire `cb` d simulated ms from now
///   every(p, cb)   fire `cb` every p simulated ms (PolicyContext)
///
/// `FiferFramework` implements it on the discrete-event `Simulation`;
/// `LiveRuntime` on the wall-paced `WallDriver`. Cold starts and service
/// times are `after` events on passive `Container`s in both modes, so the
/// simulator and the prototype run the same code path event for event.
///
/// Threading: none. Every entry point runs on one thread at a time — the
/// simulator's loop, or (live) whichever thread holds the wall driver's
/// lock.
class ChainEngine : public PolicyContext {
 public:
  explicit ChainEngine(ExperimentParams params);

  // --- introspection (used by tests) ---
  const ProfileBook& profiles() const override { return profiles_; }
  const Cluster& cluster() const { return cluster_; }
  const std::map<std::string, StageState>& stages() const { return stages_; }
  const PolicyEngine& engine() const { return engine_; }

  // --- PolicyContext view (called by the policy strategies) ---
  const ExperimentParams& params() const override { return params_; }
  std::map<std::string, StageState>& stages() override { return stages_; }
  const MicroserviceRegistry& services() const override { return services_; }
  const ApplicationRegistry& apps() const override { return apps_; }
  const WindowSampler& sampler() const override { return sampler_; }
  Container* spawn_container(StageState& st) override;
  void terminate_container(StageState& st, Container& c) override;
  /// The run's tracing sink (null when tracing is off). Owned here: one
  /// sink per engine, so parallel sweeps share no mutable trace state.
  obs::TraceSink* trace() const override { return sink_.get(); }

 protected:
  /// The driver's one-shot timer (see the class comment).
  virtual void after(SimDuration delay, EventQueue::Callback cb) = 0;
  /// Called once per completed chain, after its metrics are folded in.
  virtual void job_completed(const Job& /*job*/) {}

  /// Offline steps, before the clock runs: surface the batch sizer's B_size
  /// decisions to the trace, then let the scaler pre-train predictors and
  /// size static pools.
  void start_offline();
  /// Periodic machinery, registered after the first arrival is scheduled:
  /// the scaler's ticks (Algorithm 1a/1e, retraining), then housekeeping.
  /// Registration order is part of the determinism contract (same-time
  /// events fire in registration order).
  void install_ticks();
  void submit_job(const Arrival& arrival);
  std::uint64_t jobs_submitted() const { return jobs_.size(); }
  bool all_jobs_completed() const { return completed_jobs_ == jobs_.size(); }
  /// Closes the run at `end`: integrates energy, folds the metrics into the
  /// result, and exports the trace files when `params.trace_prefix` is set.
  ExperimentResult finish(SimTime end);

  /// The experiment seed's stream; the arrival plan splits from it.
  Rng& rng() { return rng_; }
  /// The hot-path profiler while tracing, null otherwise.
  obs::Profiler* profiler() const { return prof_; }

 private:
  // Task path.
  /// Publishes the transition to stage `stage_index` on the event bus; the
  /// task enters the stage queue when the bus delivers it.
  void transition_to_stage(Job& job, std::size_t stage_index);
  void enqueue_task(Job& job, std::size_t stage_index);
  void dispatch_stage(StageState& st);
  void start_next_task(StageState& st, Container& c);
  void finish_task(StageState& st, Container& c, TaskRef task);
  void complete_job(Job& job);

  // Container lifecycle.
  /// Frees the least-recently-used idle container of a non-backlogged stage
  /// to make room when the cluster is full (serverless platforms reclaim
  /// idle instances under capacity pressure). Returns true if one was
  /// evicted.
  bool reclaim_idle_capacity();
  void on_container_ready(StageState& st, SlabHandle<Container> h);
  void reap_idle_containers();

  void housekeeping_tick();
  /// Asserts arrived = completed + resident-in-stages + in-transition; see
  /// the definition for the precise accounting.
  void check_request_conservation() const;

  StageState& stage_of(const std::string& name);
  void log_job(const Job& job);
  void log_container(const std::string& stage, ContainerId id, SimDuration cold_ms);
  void trace_batch_profiles();
  void export_trace_files();

  ExperimentParams params_;
  Cluster cluster_;
  MicroserviceRegistry services_;
  ApplicationRegistry apps_;
  /// The assembled policy strategies; must precede profiles_ (the batch
  /// sizer shapes the stage profiles).
  PolicyEngine engine_;
  ProfileBook profiles_;
  std::map<std::string, StageState> stages_;
  MetricsCollector metrics_;
  Rng rng_;

  WindowSampler sampler_;
  EventBus bus_;

  /// Slab-backed job registry: pointer-stable (queues hold Job*), chunked,
  /// never erased during a run, so size() is the submitted count.
  Slab<Job> jobs_;
  std::ofstream trace_log_;
  /// Tracing state (null/empty when tracing is off). `sink_` receives spans
  /// and decisions; `prof_` points at `profiler_` only while tracing so the
  /// instrumented hot paths reduce to one null check when disabled.
  std::shared_ptr<obs::TraceSink> sink_;
  obs::Profiler profiler_;
  obs::Profiler* prof_ = nullptr;
  std::uint64_t completed_jobs_ = 0;
  std::uint64_t next_job_id_ = 0;
  std::uint64_t next_container_id_ = 0;
};

}  // namespace fifer
