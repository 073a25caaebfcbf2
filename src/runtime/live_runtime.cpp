#include "runtime/live_runtime.hpp"

#include <utility>

#include "common/check.hpp"
#include "runtime/gateway.hpp"

namespace fifer {

LiveRuntime::LiveRuntime(ExperimentParams params, LiveOptions opts)
    : ChainEngine(std::move(params)), opts_(opts), driver_(opts.time_scale) {
  // The wire protocol's app numbering: registry insertion order. An app is
  // servable only if every stage of its chain has a provisioned pool (the
  // mix may cover a subset of the registry).
  for (const ApplicationChain& chain : apps().all()) {
    app_names_.push_back(chain.name);
    bool servable = true;
    for (const std::string& stage : chain.stages) {
      servable = servable && stages().find(stage) != stages().end();
    }
    app_servable_.push_back(servable);
  }
}

LiveRunReport LiveRuntime::run() {
  FIFER_CHECK(!ran_, kCore) << "LiveRuntime::run is single-shot";
  ran_ = true;
  // Offline steps, single-threaded, clock still reading 0. Containers
  // spawned here become ready at anchor + cold start.
  start_offline();
  Gateway gateway(*this);
  return gateway.run();
}

void LiveRuntime::job_completed(const Job& job) {
  if (opts_.external_source == nullptr ||
      value_of(job.id) >= external_meta_.size()) {
    return;
  }
  // The request's network span: accept -> admission -> response queued.
  // Still under the driver lock — the sink's single-writer contract and the
  // §5f order (state lock -> net-layer leaf locks) both require it.
  const ExternalRequest& req = external_meta_[value_of(job.id)];
  if (obs::TraceSink* t = trace()) {
    obs::SpanRecord s;
    s.job = value_of(job.id);
    s.app = job.app->name;
    s.stage = "net";
    s.enqueued = req.received_ms;   // parsed off the socket
    s.dispatched = job.arrival;     // admitted through the gate
    s.exec_start = job.arrival;
    s.exec_end = job.completion;    // response queued to the connection
    s.container = req.conn_id;
    t->on_span(s);
  }
  ExternalCompletion done;
  done.req = req;
  done.arrival_ms = job.arrival;
  done.completion_ms = job.completion;
  done.violated_slo = job.violated_slo();
  opts_.external_source->on_completion(done);
}

// ------------------------------------------------- external gate (serving)

ExternalGate::Admit LiveRuntime::submit(const ExternalRequest& req) {
  MutexLock lock(&driver_.mu());
  if (!accepting_external_) return Admit::kDraining;
  if (req.app_index >= app_names_.size() || !app_servable_[req.app_index]) {
    return Admit::kUnknownApp;
  }
  FIFER_DCHECK_EQ(external_meta_.size(), jobs_submitted(), kCore);
  external_meta_.push_back(req);
  if (req.received_ms <= 0.0) external_meta_.back().received_ms = now();

  Arrival arrival;
  arrival.time = now();
  arrival.app = app_names_[req.app_index];
  arrival.input_scale = req.input_scale;
  submit_job(arrival);
  return Admit::kAccepted;
}

LiveRunReport run_live(ExperimentParams params, LiveOptions opts) {
  LiveRuntime rt(std::move(params), opts);
  return rt.run();
}

}  // namespace fifer
