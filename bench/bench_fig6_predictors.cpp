// Figure 6 — comparing the eight load-prediction models (paper §4.5.1):
//   (a) RMSE and per-forecast latency on the WITS arrival trace, with the
//       ML models pre-trained on 60% of the trace, and
//   (b) the LSTM's predicted-vs-actual series on the test region.
//
// Expected shape: LSTM lowest RMSE; simple averages cheapest but least
// accurate on spikes.

#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/plot.hpp"
#include "predict/evaluation.hpp"

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  fifer::bench::BenchSettings s = fifer::bench::BenchSettings::from_config(cfg);
  s.duration_s = cfg.get_double("duration_s", 2000.0);
  const std::string csv_path = cfg.get_string("csv", "");
  // extras=true appends the repo's extension baselines (seasonal-naive,
  // Holt-Winters) to the paper's eight models.
  const bool extras = cfg.get_bool("extras", false);
  fifer::exit_on_unknown_keys(cfg);

  const fifer::RateTrace trace = fifer::bench::bench_wits(s);
  std::cerr << "WITS-shaped trace: avg " << fifer::fmt(trace.average_rate(), 1)
            << " req/s, peak " << fifer::fmt(trace.peak_rate(), 1) << " req/s\n";

  fifer::TrainConfig tc;
  tc.epochs = s.train_epochs;
  tc.seed = s.seed;

  fifer::Table t("Figure 6a — prediction model comparison (WITS trace, 60/40 split)");
  t.set_columns({"model", "RMSE_rps", "MAE_rps", "forecast_latency_ms"});

  std::vector<std::string> names = fifer::paper_predictor_names();
  if (extras) {
    names.push_back("seasonal");
    names.push_back("hw");
  }

  fifer::PredictorEvaluation lstm_eval;
  double best_rmse = 1e18;
  std::string best_model;
  for (const auto& name : names) {
    std::cerr << "  evaluating " << name << " ..." << std::flush;
    auto model = fifer::make_predictor(name, tc);
    const auto eval = fifer::evaluate_predictor(*model, trace, 0.6, 5,
                                                tc.input_window, tc.horizon);
    std::cerr << " rmse=" << fifer::fmt(eval.rmse, 1) << "\n";
    t.add_row(eval.model, {eval.rmse, eval.mae, eval.mean_forecast_latency_ms}, 3);
    if (eval.rmse < best_rmse) {
      best_rmse = eval.rmse;
      best_model = eval.model;
    }
    if (name == "LSTM") lstm_eval = eval;
  }
  t.print(std::cout);
  std::cout << "\nLowest RMSE: " << best_model
            << " (paper check: LSTM ranks best overall)\n\n";

  // Figure 6b: predicted vs actual for the LSTM on the test region.
  fifer::Table acc("Figure 6b — LSTM predicted vs actual (sampled test steps)");
  acc.set_columns({"step", "actual_rps", "predicted_rps", "abs_err"});
  const std::size_t stride = std::max<std::size_t>(1, lstm_eval.actual.size() / 24);
  for (std::size_t i = 0; i < lstm_eval.actual.size(); i += stride) {
    acc.add_row(std::to_string(i),
                {lstm_eval.actual[i], lstm_eval.predicted[i],
                 std::abs(lstm_eval.actual[i] - lstm_eval.predicted[i])},
                1);
  }
  acc.print(std::cout);

  std::cout << "\n";
  fifer::LineChart chart("Figure 6b — LSTM predicted vs actual (req/s)", 72, 14);
  chart.add_series("actual", lstm_eval.actual)
      .add_series("predicted", lstm_eval.predicted);
  chart.print(std::cout);

  // Within-20% accuracy, the paper's "85% accurate" flavour of metric.
  std::size_t close = 0;
  for (std::size_t i = 0; i < lstm_eval.actual.size(); ++i) {
    const double denom = std::max(1.0, lstm_eval.actual[i]);
    if (std::abs(lstm_eval.predicted[i] - lstm_eval.actual[i]) / denom <= 0.2) {
      ++close;
    }
  }
  std::cout << "\nLSTM forecasts within 20% of actual: "
            << fifer::fmt(100.0 * static_cast<double>(close) /
                              static_cast<double>(lstm_eval.actual.size()),
                          1)
            << "% of test steps (paper reports ~85% accuracy)\n";

  if (!csv_path.empty()) {
    fifer::CsvWriter csv(csv_path, {"step", "actual", "predicted"});
    for (std::size_t i = 0; i < lstm_eval.actual.size(); ++i) {
      csv.write_row({static_cast<double>(i), lstm_eval.actual[i],
                     lstm_eval.predicted[i]});
    }
    std::cout << "full series written to " << csv_path << "\n";
  }
  return 0;
}
