#include "probe.hpp"

#include <utility>

#include "core/policy/placer.hpp"
#include "core/policy/scheduler.hpp"

namespace perfbench {

double steady_seconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

SpanStack::Span SpanStack::end() {
  const Frame f = frames_.back();
  frames_.pop_back();
  Span s;
  s.total_s = now_() - f.start;
  s.self_s = s.total_s - f.child_s;
  if (frames_.empty()) {
    top_level_s_ += s.total_s;
  } else {
    frames_.back().child_s += s.total_s;
  }
  return s;
}

namespace {

using fifer::Container;
using fifer::PolicyContext;
using fifer::SimDuration;
using fifer::SimTime;
using fifer::StageState;

/// Every 16th placer call samples the stage's live fleet; live_count() is
/// itself a fleet scan, so sampling every call would double the cost of the
/// very scan being measured.
constexpr std::uint64_t kFleetSampleEvery = 16;

/// The PolicyContext the traced scaler sees: forwards to the executor and
/// times the calls that reach the cluster layer.
class TracedContext final : public PolicyContext {
 public:
  explicit TracedContext(Probe& probe) : probe_(probe) {}

  void bind(PolicyContext& real) { real_ = &real; }

  SimTime now() const override { return real_->now(); }
  const fifer::ExperimentParams& params() const override {
    return real_->params();
  }
  std::map<std::string, StageState>& stages() override {
    return real_->stages();
  }
  const fifer::ProfileBook& profiles() const override {
    return real_->profiles();
  }
  const fifer::MicroserviceRegistry& services() const override {
    return real_->services();
  }
  const fifer::ApplicationRegistry& apps() const override {
    return real_->apps();
  }
  const fifer::WindowSampler& sampler() const override {
    return real_->sampler();
  }
  fifer::obs::TraceSink* trace() const override { return real_->trace(); }

  Container* spawn_container(StageState& st) override {
    probe_.spans.begin();
    Container* c = real_->spawn_container(st);
    probe_.stats.spawn.add(probe_.spans.end().self_s);
    if (c == nullptr) ++probe_.stats.spawn_failed;
    return c;
  }

  void terminate_container(StageState& st, Container& c) override {
    probe_.spans.begin();
    real_->terminate_container(st, c);
    probe_.stats.terminate.add(probe_.spans.end().self_s);
  }

  void every(SimDuration period_ms, std::function<void(SimTime)> cb) override {
    real_->every(period_ms, [this, cb = std::move(cb)](SimTime t) {
      probe_.spans.begin();
      cb(t);
      probe_.stats.tick.add(probe_.spans.end().self_s);
    });
  }

 private:
  Probe& probe_;
  PolicyContext* real_ = nullptr;
};

/// Times on_start always; with a traced probe also every other hook, run
/// against the forwarding context.
class ProbedScaler final : public fifer::Scaler {
 public:
  ProbedScaler(std::unique_ptr<fifer::Scaler> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe), ctx_(probe) {}

  const char* name() const override { return inner_->name(); }
  bool reaps_idle() const override { return inner_->reaps_idle(); }
  std::uint64_t predictor_retrains() const override {
    return inner_->predictor_retrains();
  }

  void install(PolicyContext& ctx) override { inner_->install(view(ctx)); }

  void on_start(PolicyContext& ctx) override {
    probe_.spans.begin();
    inner_->on_start(view(ctx));
    LayerStats& s = probe_.stats;
    s.on_start_s = probe_.spans.end().total_s;
    s.on_start_end = Clock::now();
    s.started = true;
    if (probe_.on_setup_done) probe_.on_setup_done();
  }

  void on_arrival(PolicyContext& ctx, StageState& st) override {
    if (!probe_.traced) return inner_->on_arrival(ctx, st);
    probe_.spans.begin();
    inner_->on_arrival(view(ctx), st);
    probe_.stats.arrival.add(probe_.spans.end().self_s);
  }

  void on_starved(PolicyContext& ctx, StageState& st) override {
    if (!probe_.traced) return inner_->on_starved(ctx, st);
    probe_.spans.begin();
    inner_->on_starved(view(ctx), st);
    probe_.stats.starved.add(probe_.spans.end().self_s);
  }

 private:
  PolicyContext& view(PolicyContext& ctx) {
    if (!probe_.traced) return ctx;
    ctx_.bind(ctx);
    return ctx_;
  }

  std::unique_ptr<fifer::Scaler> inner_;
  Probe& probe_;
  TracedContext ctx_;
};

class TracedScheduler final : public fifer::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<fifer::Scheduler> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  const char* name() const override { return inner_->name(); }
  fifer::SchedulerPolicy policy() const override { return inner_->policy(); }

  double priority_key(const PolicyContext& ctx, const fifer::Job& job,
                      std::size_t stage_index) const override {
    probe_.spans.begin();
    const double key = inner_->priority_key(ctx, job, stage_index);
    probe_.stats.key.add(probe_.spans.end().self_s);
    return key;
  }

 private:
  std::unique_ptr<fifer::Scheduler> inner_;
  Probe& probe_;
};

class TracedPlacer final : public fifer::Placer {
 public:
  TracedPlacer(std::unique_ptr<fifer::Placer> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  const char* name() const override { return inner_->name(); }
  fifer::NodeSelection node_selection() const override {
    return inner_->node_selection();
  }

  Container* select_container(StageState& st) const override {
    LayerStats& s = probe_.stats;
    if (s.select.calls % kFleetSampleEvery == 0) {
      const double t0 = steady_seconds();
      s.fleet_sum += static_cast<double>(st.live_count());
      ++s.fleet_samples;
      s.probe_s += steady_seconds() - t0;
    }
    probe_.spans.begin();
    Container* c = inner_->select_container(st);
    s.select.add(probe_.spans.end().self_s);
    if (c != nullptr) ++s.select_hits;
    return c;
  }

 private:
  std::unique_ptr<fifer::Placer> inner_;
  Probe& probe_;
};

}  // namespace

std::function<fifer::PolicyEngine(fifer::ExperimentParams&)> probed_factory(
    std::shared_ptr<Probe> probe) {
  return [probe](fifer::ExperimentParams& params) {
    fifer::PolicyEngine engine = params.rm.assemble(params);
    engine.scaler =
        std::make_unique<ProbedScaler>(std::move(engine.scaler), *probe);
    probe->scaler = engine.scaler.get();
    if (probe->traced) {
      engine.scheduler =
          std::make_unique<TracedScheduler>(std::move(engine.scheduler), *probe);
      engine.placer =
          std::make_unique<TracedPlacer>(std::move(engine.placer), *probe);
    }
    return engine;
  };
}

}  // namespace perfbench
