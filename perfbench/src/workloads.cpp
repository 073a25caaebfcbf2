#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "client.hpp"
#include "core/framework.hpp"
#include "core/report.hpp"
#include "net/serve_session.hpp"
#include "probe.hpp"
#include "quantiles.hpp"
#include "runtime/gateway.hpp"
#include "runtime/live_runtime.hpp"
#include "workload/generators.hpp"

namespace perfbench {

namespace {

// ------------------------------------------------------------ parameters

/// Set-up is also timed on executors that are built and never run, in
/// batches of this many spread over the measuring time, so that every run
/// reports a median of set-ups taken at several moments. (Host speed on a
/// shared machine drifts over seconds; set-ups taken back to back would
/// all catch the same moment.)
constexpr int kSetupBatch = 4;

/// Serving workload: Fifer on the 80-core prototype cluster under an
/// open-loop Poisson plan. 20x compression keeps one millisecond of wall
/// jitter at 20 simulated ms (the 1000 ms SLO is 50 ms of wall time) while
/// a run still covers several idle timeouts of simulated time, so the
/// cold-start burst does not dominate the fleet average. The first 20
/// simulated seconds are the ramp from an empty fleet and are left out of
/// latency and SLO figures.
constexpr double kServeRps = 40.0;
constexpr double kServeScale = 20.0;
constexpr double kServeRampMs = 20'000.0;
constexpr std::size_t kServeMaxConnections = 4;
/// The client falls behind when its 99th-percentile send lag exceeds this
/// share of the SLO's wall-time budget; such a run is invalid.
constexpr double kMaxLagShareOfSlo = 0.05;
/// Wall-clock slack past the plan's end for draining, and for waiting on
/// the server to listen and finish set-up.
constexpr double kServeSlackS = 30.0;

// --------------------------------------------------------------- helpers

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void fail(RunResult& out, std::uint64_t ops, const std::string& why) {
  out.correct = false;
  out.failed += ops;
  out.notes.push_back("FAILED: " + why);
}

/// The q-quantile, or a failed check when the sample cannot support it.
double quantile_or_fail(RunResult& out, const std::vector<double>& samples,
                        double q, const std::string& what) {
  if (const std::optional<double> v = tail_quantile(samples, q)) return *v;
  fail(out, 0,
       what + ": " + std::to_string(samples.size()) +
           " samples are too few for the requested percentile");
  return 0.0;
}

// ---------------------------------------------------------- metric sets

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs = {
      {"sim_jobs_per_s", "1/s"}, {"setup_s", "s"},
      {"slo_attain_pct", "%"},   {"containers_avg", "count"},
      {"peak_rss_mb", "MB"},     {"rtt_p50_ms", "ms"},
      {"rtt_p99_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_specs() {
  static const std::vector<MetricSpec> specs = {
      {"workload.gen_s", "s"},
      {"workload.arrivals", "count"},
      {"predict.pretrain_s", "s"},
      {"predict.retrains", "count"},
      {"scaler.arrival_calls", "count"},
      {"scaler.arrival_s", "s"},
      {"scaler.starved_calls", "count"},
      {"scaler.tick_calls", "count"},
      {"scaler.tick_s", "s"},
      {"scaler.tick_us_max", "us"},
      {"cluster.spawn_calls", "count"},
      {"cluster.spawn_s", "s"},
      {"cluster.spawn_fail_ratio", "ratio"},
      {"cluster.terminate_calls", "count"},
      {"cluster.terminate_s", "s"},
      {"placer.select_calls", "count"},
      {"placer.select_s", "s"},
      {"placer.select_us_max", "us"},
      {"placer.fleet_per_select", "count"},
      {"placer.hit_ratio", "ratio"},
      {"scheduler.key_calls", "count"},
      {"scheduler.key_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.self_s", "s"},
      {"core.jobs_completed", "count"},
      {"core.containers_spawned", "count"},
      {"runtime.job_ms_p50", "ms"},
      {"runtime.job_ms_p99", "ms"},
      {"runtime.peak_worker_threads", "count"},
      {"runtime.timer_events", "count"},
      {"runtime.fidelity_gap_pp", "pp"},
      {"net.outside_ms_p50", "ms"},
      {"net.outside_ms_p99", "ms"},
      {"net.rejected", "count"},
      {"net.protocol_errors", "count"},
      {"net.slow_consumer_drops", "count"},
      {"loadgen.lag_ms_p99", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  return specs;
}

/// Emits `values` in the order of `specs`. A layer that does not run on a
/// workload reports 0; a value under a name outside `specs` is a bug.
std::vector<Metric> emit(const std::vector<MetricSpec>& specs,
                         const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const MetricSpec& s : specs) {
    const auto it = values.find(s.name);
    out.push_back({s.name, it != values.end() ? it->second : 0.0, s.unit});
  }
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(specs.begin(), specs.end(),
                                   [&](const MetricSpec& s) { return name == s.name; });
    if (!known) throw std::logic_error("perfbench: unlisted metric " + name);
  }
  return out;
}

void add_probe_layers(std::map<std::string, double>& v, const Probe& p) {
  const LayerStats& s = p.stats;
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  v["predict.pretrain_s"] = s.on_start_s;
  v["scaler.arrival_calls"] = count(s.arrival.calls);
  v["scaler.arrival_s"] = s.arrival.self_s;
  v["scaler.starved_calls"] = count(s.starved.calls);
  v["scaler.tick_calls"] = count(s.tick.calls);
  v["scaler.tick_s"] = s.tick.self_s;
  v["scaler.tick_us_max"] = s.tick.max_s * 1e6;
  v["cluster.spawn_calls"] = count(s.spawn.calls);
  v["cluster.spawn_s"] = s.spawn.self_s;
  v["cluster.spawn_fail_ratio"] = ratio(count(s.spawn_failed), count(s.spawn.calls));
  v["cluster.terminate_calls"] = count(s.terminate.calls);
  v["cluster.terminate_s"] = s.terminate.self_s;
  v["placer.select_calls"] = count(s.select.calls);
  v["placer.select_s"] = s.select.self_s;
  v["placer.select_us_max"] = s.select.max_s * 1e6;
  v["placer.fleet_per_select"] = ratio(s.fleet_sum, count(s.fleet_samples));
  v["placer.hit_ratio"] = ratio(count(s.select_hits), count(s.select.calls));
  v["scheduler.key_calls"] = count(s.key.calls);
  v["scheduler.key_s"] = s.key.self_s;
}

// ------------------------------------------------------- sim workloads

/// The full-scale simulation of the sim workloads: the Wiki trace at
/// published rates (~1500 req/s) for 300 simulated seconds on the
/// 157 x 16 = 2512-core cluster, starting from an empty fleet. Generating
/// the trace is part of the workload's set-up.
fifer::ExperimentParams wiki_params(const fifer::RmConfig& rm, std::uint64_t seed) {
  fifer::ExperimentParams p;
  p.rm = rm;
  p.rm.idle_timeout_ms = fifer::seconds(120.0);
  p.mix = fifer::WorkloadMix::heavy();
  fifer::Rng rng(seed ^ 0xB22);
  fifer::WikiParams w;
  w.duration_s = 300.0;
  w.average_rps = 1500.0;
  w.day_period_s = 120.0;
  p.trace = fifer::wiki_trace(w, rng);
  p.trace_name = "wiki-full";
  p.cluster.node_count = 157;
  p.cluster.cores_per_node = 16.0;
  p.bus.capacity = 65536;  // the transition fabric scales with the cluster
  p.seed = seed;
  p.train.epochs = 30;
  p.input_scale_jitter = 0.15;
  return p;
}

struct SimRep {
  std::shared_ptr<Probe> probe;
  fifer::ExperimentResult result;
  std::string report;
  std::size_t arrivals = 0;
  double gen_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;  ///< The whole run() span, on_start included.
};

/// One simulation: inputs from the seed, construction, and (when `run`)
/// the run itself; otherwise only Scaler::on_start, to time set-up.
SimRep sim_rep(const fifer::RmConfig& rm, std::uint64_t seed, bool traced,
               bool run) {
  SimRep r;
  const Clock::time_point t0 = Clock::now();
  fifer::ExperimentParams params = wiki_params(rm, seed);
  r.arrivals = fifer::materialize_arrival_plan(params).size();
  r.gen_s = since(t0);
  r.probe = std::make_shared<Probe>(traced);
  params.policy_factory = probed_factory(r.probe);
  fifer::FiferFramework fw(std::move(params));
  if (!run) {
    r.probe->scaler->on_start(fw);
  } else {
    const Clock::time_point t1 = Clock::now();
    r.result = fw.run();
    r.run_s = since(t1);
    r.report = report_text(r.result);
  }
  r.setup_s = seconds_between(t0, r.probe->stats.on_start_end);
  return r;
}

/// Every planned arrival must have been submitted and completed.
void check_sim(const SimRep& r, RunResult& out) {
  out.attempted += r.arrivals;
  const std::uint64_t done = r.result.jobs_completed;
  if (r.result.jobs_submitted != r.arrivals || done != r.arrivals) {
    fail(out, r.arrivals > done ? r.arrivals - done : 1,
         std::to_string(done) + " of " + std::to_string(r.arrivals) +
             " planned arrivals completed");
  }
}

RunResult run_sim(const fifer::RmConfig& rm, const RunOptions& opts) {
  RunResult out;
  std::map<std::string, double> v;
  if (!opts.trace) {
    std::vector<double> setups;
    std::vector<double> rates;
    const auto setup_batch = [&] {
      for (int i = 0; i < kSetupBatch; ++i) {
        setups.push_back(sim_rep(rm, opts.seed, false, false).setup_s);
      }
    };
    // One run is alive at a time, so peak RSS is that of one run. Runs of
    // one seed must report identically; the simulated figures come from
    // the first.
    std::string first_report;
    const Clock::time_point start = Clock::now();
    do {
      setup_batch();
      const SimRep r = sim_rep(rm, opts.seed, false, true);
      check_sim(r, out);
      setups.push_back(r.setup_s);
      rates.push_back(static_cast<double>(r.result.jobs_completed) /
                      (r.run_s - r.probe->stats.on_start_s));
      if (!first_report.empty()) {
        if (r.report != first_report) {
          fail(out, r.arrivals, "two runs of one seed produced different reports");
        }
        continue;
      }
      first_report = r.report;
      const std::vector<double>& response = r.result.response_ms.sorted_samples();
      v["slo_attain_pct"] = 100.0 - r.result.slo_violation_pct();
      v["containers_avg"] = r.result.avg_active_containers;
      v["rtt_p50_ms"] = quantile_or_fail(out, response, 0.50, "rtt_p50_ms");
      v["rtt_p99_ms"] = quantile_or_fail(out, response, 0.99, "rtt_p99_ms");
      out.notes.push_back("rtt: simulated response time over " +
                          std::to_string(response.size()) + " requests");
    } while (since(start) < opts.seconds);
    setup_batch();

    v["sim_jobs_per_s"] = median(rates);
    v["setup_s"] = median(setups);
    v["peak_rss_mb"] = peak_rss_mb();
    std::string each;
    for (double r : rates) each += " " + std::to_string(static_cast<long long>(r));
    out.notes.push_back("medians over " + std::to_string(rates.size()) + " runs (jobs/s:" +
                        each + ") and " + std::to_string(setups.size()) + " set-ups");
    out.metrics = emit(end_to_end_specs(), v);
    return out;
  }

  // Traced: one untraced and one traced run of the same inputs. Their
  // reports must be byte-identical (the decorators are transparent).
  const SimRep u = sim_rep(rm, opts.seed, false, true);
  const SimRep t = sim_rep(rm, opts.seed, true, true);
  check_sim(u, out);
  check_sim(t, out);
  if (u.report != t.report) {
    fail(out, t.arrivals, "the traced run's report differs from the untraced run's");
  }
  const Probe& p = *t.probe;
  add_probe_layers(v, p);
  v["workload.gen_s"] = t.gen_s;
  v["workload.arrivals"] = static_cast<double>(t.arrivals);
  v["predict.retrains"] = static_cast<double>(t.result.predictor_retrains);
  // Outermost spans are the strategy calls, their children included.
  const double self_s = t.run_s - p.spans.top_level_s() - p.stats.probe_s;
  v["sim.events"] = static_cast<double>(t.result.sim_events);
  v["sim.self_s"] = self_s;
  v["sim.ns_per_event"] = ratio(self_s * 1e9, static_cast<double>(t.result.sim_events));
  v["core.jobs_completed"] = static_cast<double>(t.result.jobs_completed);
  v["core.containers_spawned"] = static_cast<double>(t.result.containers_spawned);
  v["obs.trace_overhead_pct"] = 100.0 * (t.run_s - u.run_s) / u.run_s;
  out.notes.push_back("run() host seconds: untraced " + std::to_string(u.run_s) +
                      ", traced " + std::to_string(t.run_s));
  out.metrics = emit(per_layer_specs(), v);
  return out;
}

// ------------------------------------------------------ serve workload

/// A value one thread sets once and another waits for.
template <typename T>
class OnceValue {
 public:
  void set(T v) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (value_) return;
      value_ = v;
    }
    cv_.notify_all();
  }

  std::optional<T> wait(double seconds) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                 [this] { return value_.has_value(); });
    return value_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<T> value_;
};

fifer::ExperimentParams serve_params(std::uint64_t seed, double seconds) {
  fifer::ExperimentParams p;
  p.rm = fifer::RmConfig::fifer();
  p.rm.idle_timeout_ms = fifer::seconds(120.0);
  p.mix = fifer::WorkloadMix::heavy();
  p.trace = fifer::poisson_trace(seconds * kServeScale, kServeRps);
  p.trace_name = "poisson";
  p.seed = seed;
  p.warmup_ms = kServeRampMs;
  p.train.epochs = 30;
  p.input_scale_jitter = 0.15;
  return p;
}

std::vector<PlannedRequest> client_plan(const fifer::ExperimentParams& params,
                                        const std::vector<fifer::Arrival>& plan) {
  std::unordered_map<std::string, std::uint32_t> index;
  for (const fifer::ApplicationChain& chain : params.applications.all()) {
    index.emplace(chain.name, static_cast<std::uint32_t>(index.size()));
  }
  std::vector<PlannedRequest> out;
  out.reserve(plan.size());
  for (const fifer::Arrival& a : plan) {
    out.push_back({index.at(a.app), a.input_scale, a.time});
  }
  return out;
}

std::size_t serve_connections() {
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  return std::min(kServeMaxConnections, cpus);
}

fifer::LiveOptions serve_live_options(double seconds) {
  fifer::LiveOptions lo;
  lo.time_scale = kServeScale;
  lo.max_wall_seconds = seconds + kServeSlackS;
  return lo;
}

struct ServeRep {
  std::shared_ptr<Probe> probe;
  fifer::net::ServeRunReport report;
  ClientReport client;
  std::vector<fifer::Arrival> plan;
  double gen_s = 0.0;
  double setup_s = 0.0;
  double cpu_s = 0.0;  ///< Process CPU seconds of the served run.
};

/// Set-up only: inputs, the live runtime and Scaler::on_start.
double serve_setup(std::uint64_t seed, double seconds) {
  const Clock::time_point t0 = Clock::now();
  fifer::ExperimentParams params = serve_params(seed, seconds);
  const std::vector<fifer::Arrival> plan = fifer::materialize_arrival_plan(params);
  // Built as in a served run, so that set-up covers the same work.
  const std::vector<PlannedRequest> requests = client_plan(params, plan);
  auto probe = std::make_shared<Probe>(false);
  params.policy_factory = probed_factory(probe);
  fifer::LiveRuntime rt(std::move(params), serve_live_options(seconds));
  probe->scaler->on_start(rt);
  return seconds_between(t0, probe->stats.on_start_end);
}

/// One served run: the server and live runtime in this process, the
/// open-loop client on its own thread, started once set-up is done.
ServeRep serve_rep(std::uint64_t seed, double seconds, bool traced) {
  ServeRep r;
  const Clock::time_point t0 = Clock::now();
  fifer::ExperimentParams params = serve_params(seed, seconds);
  r.plan = fifer::materialize_arrival_plan(params);
  const std::vector<PlannedRequest> requests = client_plan(params, r.plan);
  r.gen_s = since(t0);

  r.probe = std::make_shared<Probe>(traced);
  params.policy_factory = probed_factory(r.probe);
  OnceValue<std::uint16_t> port;
  OnceValue<Clock::time_point> anchor;
  r.probe->on_setup_done = [&anchor] { anchor.set(Clock::now()); };

  fifer::net::ServeOptions so;
  so.expected_clients = serve_connections();
  so.reference_plan = r.plan;
  so.on_listening = [&port](std::uint16_t p) { port.set(p); };

  ClientOptions co;
  co.connections = serve_connections();
  co.time_scale = kServeScale;
  co.timeout_s = seconds + kServeSlackS / 2.0;
  std::thread client([&] {
    const std::optional<std::uint16_t> p = port.wait(kServeSlackS);
    if (!p || *p == 0) {
      r.client.errors = 1;
      return;
    }
    co.port = *p;
    r.client = run_open_loop(requests, co, [&anchor] { return anchor.wait(kServeSlackS); });
  });

  const double cpu0 = cpu_seconds();
  try {
    r.report = fifer::net::serve_live(params, serve_live_options(seconds), std::move(so));
  } catch (...) {
    port.set(0);
    client.join();
    throw;
  }
  port.set(0);  // Releases a client still waiting when listening failed.
  client.join();
  r.probe->on_setup_done = nullptr;  // It refers to `anchor`, a local.
  r.cpu_s = cpu_seconds() - cpu0;
  if (r.probe->stats.started) {
    r.setup_s = seconds_between(t0, r.probe->stats.on_start_end);
  }
  return r;
}

/// Post-ramp samples of one served run, in wall ms.
struct ServeSamples {
  std::vector<double> rtt;
  std::vector<double> job;
  std::vector<double> outside;
  std::vector<double> lag;
};

ServeSamples serve_samples(const ServeRep& r) {
  ServeSamples s;
  for (std::size_t i = 0; i < r.client.requests.size(); ++i) {
    const RequestOutcome& o = r.client.requests[i];
    s.lag.push_back(o.lag_ms);
    if (!o.answered || o.status != fifer::net::wire::Status::kOk) continue;
    if (r.plan[i].time < kServeRampMs) continue;
    s.rtt.push_back(o.rtt_ms);
    s.job.push_back(o.job_ms);
    s.outside.push_back(o.rtt_ms - o.job_ms);
  }
  return s;
}

/// Each request answered exactly once with kOk, no plan mismatch, a
/// drained run, and a client that kept to its schedule.
void check_serve(const ServeRep& r, RunResult& out) {
  const std::size_t n = r.plan.size();
  out.attempted += n;
  if (r.report.listen_failed) {
    fail(out, n, "the server could not listen");
    return;
  }
  std::uint64_t missing = 0;
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= r.client.requests.size() || !r.client.requests[i].answered) {
      ++missing;
    } else if (r.client.requests[i].status != fifer::net::wire::Status::kOk) {
      ++rejected;
    }
  }
  if (missing > 0) fail(out, missing, std::to_string(missing) + " requests got no response");
  if (rejected > 0) fail(out, rejected, std::to_string(rejected) + " requests were rejected");
  if (r.client.duplicates + r.client.unknown_tags > 0) {
    fail(out, r.client.duplicates + r.client.unknown_tags,
         "duplicate or unplanned responses");
  }
  if (r.client.errors > 0) fail(out, 0, "client connection errors");
  if (r.report.plan_mismatches > 0) {
    fail(out, r.report.plan_mismatches, "requests disagreed with the plan");
  }
  if (!r.report.live.drained) fail(out, 0, "the served run did not drain");

  const double slo_wall_ms = 1000.0 / kServeScale;
  const double max_lag_ms = kMaxLagShareOfSlo * slo_wall_ms;
  const ServeSamples s = serve_samples(r);
  const std::optional<double> lag = tail_quantile(s.lag, 0.99);
  if (lag && *lag > max_lag_ms) {
    const auto late = static_cast<std::uint64_t>(std::count_if(
        s.lag.begin(), s.lag.end(), [&](double l) { return l > max_lag_ms; }));
    fail(out, late, "the client fell behind its schedule (lag p99 " +
                        std::to_string(*lag) + " ms)");
  }
}

double served_slo_pct(const ServeRep& r) {
  return 100.0 - r.report.live.result.slo_violation_pct();
}

RunResult run_serve(const RunOptions& opts) {
  RunResult out;
  std::map<std::string, double> v;
  if (!opts.trace) {
    std::vector<double> setups;
    const auto setup_batch = [&] {
      for (int i = 0; i < kSetupBatch; ++i) {
        setups.push_back(serve_setup(opts.seed, opts.seconds));
      }
    };
    setup_batch();
    const ServeRep r = serve_rep(opts.seed, opts.seconds, false);
    setup_batch();
    check_serve(r, out);
    setups.push_back(r.setup_s);
    const ServeSamples s = serve_samples(r);
    v["sim_jobs_per_s"] = ratio(static_cast<double>(r.report.responded),
                                r.report.live.wall_seconds);
    v["setup_s"] = median(setups);
    v["slo_attain_pct"] = served_slo_pct(r);
    v["containers_avg"] = r.report.live.result.avg_active_containers;
    v["peak_rss_mb"] = peak_rss_mb();
    v["rtt_p50_ms"] = quantile_or_fail(out, s.rtt, 0.50, "rtt_p50_ms");
    v["rtt_p99_ms"] = quantile_or_fail(out, s.rtt, 0.99, "rtt_p99_ms");
    out.notes.push_back("rtt: client wall time from due time over " +
                        std::to_string(s.rtt.size()) + " post-ramp requests; " +
                        std::to_string(setups.size()) + " set-ups");
    out.metrics = emit(end_to_end_specs(), v);
    return out;
  }

  const ServeRep u = serve_rep(opts.seed, opts.seconds, false);
  const ServeRep t = serve_rep(opts.seed, opts.seconds, true);
  check_serve(u, out);
  check_serve(t, out);

  // The simulator twin on the same plan, untraced and traced.
  fifer::ExperimentParams twin = serve_params(opts.seed, opts.seconds);
  auto twin_plain = std::make_shared<Probe>(false);
  auto twin_traced = std::make_shared<Probe>(true);
  twin.policy_factory = probed_factory(twin_plain);
  const fifer::ExperimentResult twin_u = fifer::FiferFramework(twin).run();
  twin.policy_factory = probed_factory(twin_traced);
  const fifer::ExperimentResult twin_t = fifer::FiferFramework(twin).run();
  if (report_text(twin_u) != report_text(twin_t)) {
    fail(out, twin_t.jobs_submitted, "the traced twin's report differs from the untraced twin's");
  }

  const ServeSamples s = serve_samples(t);
  add_probe_layers(v, *t.probe);
  v["workload.gen_s"] = t.gen_s;
  v["workload.arrivals"] = static_cast<double>(t.plan.size());
  v["predict.retrains"] = static_cast<double>(t.report.live.result.predictor_retrains);
  v["core.jobs_completed"] = static_cast<double>(t.report.responded);
  v["core.containers_spawned"] = static_cast<double>(t.report.live.result.containers_spawned);
  v["runtime.job_ms_p50"] = quantile_or_fail(out, s.job, 0.50, "runtime.job_ms_p50");
  v["runtime.job_ms_p99"] = quantile_or_fail(out, s.job, 0.99, "runtime.job_ms_p99");
  v["runtime.peak_worker_threads"] = static_cast<double>(t.report.live.peak_worker_threads);
  v["runtime.timer_events"] = static_cast<double>(t.report.live.timer_events);
  v["runtime.fidelity_gap_pp"] = (100.0 - twin_u.slo_violation_pct()) - served_slo_pct(t);
  v["net.outside_ms_p50"] = quantile_or_fail(out, s.outside, 0.50, "net.outside_ms_p50");
  v["net.outside_ms_p99"] = quantile_or_fail(out, s.outside, 0.99, "net.outside_ms_p99");
  v["net.rejected"] = static_cast<double>(t.report.rejected_draining +
                                          t.report.rejected_unknown_app +
                                          t.report.rejected_bad_version);
  v["net.protocol_errors"] = static_cast<double>(t.report.net.protocol_errors);
  v["net.slow_consumer_drops"] = static_cast<double>(t.report.net.slow_consumer_drops);
  v["loadgen.lag_ms_p99"] = quantile_or_fail(out, s.lag, 0.99, "loadgen.lag_ms_p99");
  v["obs.trace_overhead_pct"] = 100.0 * (t.cpu_s - u.cpu_s) / u.cpu_s;
  out.notes.push_back("served run CPU seconds: untraced " + std::to_string(u.cpu_s) +
                      ", traced " + std::to_string(t.cpu_s) + "; " +
                      std::to_string(s.rtt.size()) + " post-ramp requests");
  out.metrics = emit(per_layer_specs(), v);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sim-bline-wiki", "sim-fifer-wiki", "serve-fifer-poisson"};
  return names;
}

std::string report_text(const fifer::ExperimentResult& result) {
  return fifer::result_to_json(result).dump();
}

RunResult run_workload(const RunOptions& opts) {
  if (opts.workload == "sim-bline-wiki") return run_sim(fifer::RmConfig::bline(), opts);
  if (opts.workload == "sim-fifer-wiki") return run_sim(fifer::RmConfig::fifer(), opts);
  if (opts.workload == "serve-fifer-poisson") return run_serve(opts);
  throw std::invalid_argument("unknown workload " + opts.workload);
}

}  // namespace perfbench
