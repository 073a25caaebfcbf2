// Example: working with the load-prediction stack directly — build traces,
// train any of the eight models, inspect forecasts, and feed a live
// WindowSampler the way the Fifer load balancer does (paper §4.5).
//
// Usage: predictor_playground [model=lstm] [duration_s=1500] [epochs=40]

#include <exception>
#include <iostream>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "predict/evaluation.hpp"
#include "predict/predictor.hpp"
#include "predict/window.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) try {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  const std::string model_name = cfg.get_string("model", "lstm");
  const double duration_s = cfg.get_double("duration_s", 1500.0);
  const auto epochs = static_cast<std::size_t>(cfg.get_int("epochs", 40));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  fifer::exit_on_unknown_keys(cfg);

  // ---- a trace with structure worth predicting ----
  fifer::Rng rng(seed);
  fifer::WitsParams wp;
  wp.duration_s = duration_s;
  const fifer::RateTrace trace = fifer::wits_trace(wp, rng);
  std::cout << "trace: avg " << fifer::fmt(trace.average_rate(), 1)
            << " req/s, peak " << fifer::fmt(trace.peak_rate(), 1) << " req/s\n";

  // ---- train and evaluate with the paper's 60/40 protocol ----
  fifer::TrainConfig tc;
  tc.epochs = epochs;
  tc.seed = seed;
  auto model = fifer::make_predictor(model_name, tc);
  const auto eval = fifer::evaluate_predictor(*model, trace, 0.6, 5,
                                              tc.input_window, tc.horizon);
  std::cout << eval.model << ": RMSE " << fifer::fmt(eval.rmse, 2) << " req/s, MAE "
            << fifer::fmt(eval.mae, 2) << " req/s, "
            << fifer::fmt(eval.mean_forecast_latency_ms * 1000.0, 1)
            << " us per forecast over " << eval.actual.size() << " steps\n\n";

  // ---- drive a WindowSampler like the framework's load balancer ----
  // Replay the tail of the trace as individual arrivals, then ask the
  // trained model for the next-window max forecast every T = 10 s.
  fifer::WindowSampler sampler;  // Ws = 5 s, 100 s of history
  fifer::Rng arrivals_rng(seed ^ 1);
  fifer::Table live("live forecasting (last 100 s of the trace)");
  live.set_columns({"t_s", "observed_window_max_rps", "forecast_rps"});

  const double tail_start_s = duration_s - 200.0;
  double next_report_s = tail_start_s + 100.0;
  for (double t_s = tail_start_s; t_s < duration_s; t_s += 1.0) {
    const double rate = trace.rate_at(fifer::seconds(t_s));
    const auto count = arrivals_rng.poisson(rate);
    for (std::int64_t i = 0; i < count; ++i) {
      sampler.record_arrival(fifer::seconds(t_s) + arrivals_rng.uniform(0.0, 999.9));
    }
    if (t_s >= next_report_s) {
      const auto now = fifer::seconds(t_s + 1.0);
      const auto window_rates = sampler.window_rates(now);
      live.add_row(fifer::fmt(t_s, 0),
                   {sampler.global_max_rate(now), model->forecast(window_rates)}, 1);
      next_report_s += 10.0;  // the paper's monitoring interval T
    }
  }
  live.print(std::cout);

  std::cout << "\nTry model=mwa|ewma|linreg|logreg|ff|wavenet|deepar|lstm to\n"
               "compare behaviours; Figure 6's full sweep lives in\n"
               "bench_fig6_predictors.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
