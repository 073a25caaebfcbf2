// DESIGN.md §5i — NN predictor performance gate: the kernel-layer rewrite
// (Workspace arena + fused raw-buffer kernels + batched input projection)
// and the deterministic sharded trainer, measured against the pre-rewrite
// scalar Vec implementation.
//
// Three things are checked, two of them hard gates (non-zero exit):
//  - zero-alloc inference: after a warmup call, forecast() on every
//    trainable predictor (SimpleFF, LSTM, DeepAR, WaveNet) must perform
//    ZERO heap allocations (counting allocator below, as in bench_scale);
//  - scalar-path parity: an embedded copy of the pre-rewrite Vec-based
//    LSTM predictor is trained on the same data/seed; its forecast must be
//    BIT-IDENTICAL to the rewritten predictor at train_shards=1 (the same
//    contract the golden-digest fidelity suite pins, re-proved here
//    against living reference code);
//  - throughput columns (informational): training examples/s for the
//    legacy scalar path vs the kernel path vs the sharded-parallel path,
//    and per-model inference latency. `json_out=<path>` emits
//    BENCH_predict.json for the CI release leg.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "predict/dataset.hpp"
#include "predict/neural.hpp"
#include "predict/nn/matrix.hpp"
#include "predict/nn/optimizer.hpp"
#include "predict/predictor.hpp"

// ------------------------------------------------------ counting allocator
//
// Global operator new/delete overrides: every heap allocation bumps one
// relaxed atomic, program-wide. Same pattern as bench_scale.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

std::uint64_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --------------------------------------------------- legacy scalar LSTM
//
// Frozen copy of the pre-§5i Vec-based implementation (per-timestep
// heap-allocated step caches, matvec temporaries, scalar loops): the
// baseline the speedup columns are measured against, and the reference the
// parity gate compares bits with. Deliberately verbatim — do not "fix" or
// modernize; its arithmetic order is the contract.

namespace legacy {

using fifer::Rng;
using fifer::nn::add_in_place;
using fifer::nn::add_outer;
using fifer::nn::hadamard;
using fifer::nn::Matrix;
using fifer::nn::matvec;
using fifer::nn::matvec_transposed;
using fifer::nn::ParamRef;
using fifer::nn::tanh_vec;
using fifer::nn::Vec;

Matrix lstm_initial_bias(std::size_t hidden) {
  Matrix b(4 * hidden, 1, 0.0);
  for (std::size_t i = hidden; i < 2 * hidden; ++i) b(i, 0) = 1.0;
  return b;
}

class LstmLayer {
 public:
  LstmLayer(std::size_t input_dim, std::size_t hidden_dim, Rng& rng)
      : hidden_(hidden_dim),
        wx_(Matrix::xavier(4 * hidden_dim, input_dim, rng)),
        wh_(Matrix::xavier(4 * hidden_dim, hidden_dim, rng)),
        b_(lstm_initial_bias(hidden_dim)),
        dwx_(4 * hidden_dim, input_dim, 0.0),
        dwh_(4 * hidden_dim, hidden_dim, 0.0),
        db_(4 * hidden_dim, 1, 0.0) {}

  std::vector<Vec> forward(const std::vector<Vec>& xs) {
    cache_.clear();
    cache_.reserve(xs.size());
    Vec h(hidden_, 0.0);
    Vec c(hidden_, 0.0);
    std::vector<Vec> hs;
    hs.reserve(xs.size());

    for (const Vec& x : xs) {
      StepCache sc;
      sc.x = x;
      sc.h_prev = h;
      sc.c_prev = c;

      Vec z = matvec(wx_, x);
      add_in_place(z, matvec(wh_, h));
      for (std::size_t i = 0; i < z.size(); ++i) z[i] += b_(i, 0);

      sc.i.resize(hidden_);
      sc.f.resize(hidden_);
      sc.g.resize(hidden_);
      sc.o.resize(hidden_);
      for (std::size_t j = 0; j < hidden_; ++j) {
        sc.i[j] = 1.0 / (1.0 + std::exp(-z[j]));
        sc.f[j] = 1.0 / (1.0 + std::exp(-z[hidden_ + j]));
        sc.g[j] = std::tanh(z[2 * hidden_ + j]);
        sc.o[j] = 1.0 / (1.0 + std::exp(-z[3 * hidden_ + j]));
      }

      c = hadamard(sc.f, c);
      add_in_place(c, hadamard(sc.i, sc.g));
      sc.c = c;
      sc.tanh_c = tanh_vec(c);
      h = hadamard(sc.o, sc.tanh_c);
      sc.h = h;

      hs.push_back(h);
      cache_.push_back(std::move(sc));
    }
    return hs;
  }

  std::vector<Vec> backward(const std::vector<Vec>& dh_seq) {
    std::vector<Vec> dx_seq(cache_.size());
    Vec dh_next(hidden_, 0.0);
    Vec dc_next(hidden_, 0.0);

    for (std::size_t t = cache_.size(); t-- > 0;) {
      const StepCache& sc = cache_[t];
      Vec dh = dh_seq[t];
      add_in_place(dh, dh_next);

      const Vec do_gate = hadamard(dh, sc.tanh_c);
      Vec dc = hadamard(dh, sc.o);
      for (std::size_t j = 0; j < hidden_; ++j) {
        dc[j] *= 1.0 - sc.tanh_c[j] * sc.tanh_c[j];
        dc[j] += dc_next[j];
      }

      const Vec df = hadamard(dc, sc.c_prev);
      const Vec di = hadamard(dc, sc.g);
      const Vec dg = hadamard(dc, sc.i);
      dc_next = hadamard(dc, sc.f);

      Vec dz(4 * hidden_, 0.0);
      for (std::size_t j = 0; j < hidden_; ++j) {
        dz[j] = di[j] * sc.i[j] * (1.0 - sc.i[j]);
        dz[hidden_ + j] = df[j] * sc.f[j] * (1.0 - sc.f[j]);
        dz[2 * hidden_ + j] = dg[j] * (1.0 - sc.g[j] * sc.g[j]);
        dz[3 * hidden_ + j] = do_gate[j] * sc.o[j] * (1.0 - sc.o[j]);
      }

      add_outer(dwx_, dz, sc.x);
      add_outer(dwh_, dz, sc.h_prev);
      for (std::size_t j = 0; j < dz.size(); ++j) db_(j, 0) += dz[j];

      dx_seq[t] = matvec_transposed(wx_, dz);
      dh_next = matvec_transposed(wh_, dz);
    }
    return dx_seq;
  }

  std::vector<ParamRef> params() {
    return {{&wx_, &dwx_}, {&wh_, &dwh_}, {&b_, &db_}};
  }

 private:
  struct StepCache {
    Vec x, h_prev, c_prev;
    Vec i, f, g, o;
    Vec c, tanh_c, h;
  };
  std::size_t hidden_;
  Matrix wx_, wh_, b_;
  Matrix dwx_, dwh_, db_;
  std::vector<StepCache> cache_;
};

class Dense {
 public:
  Dense(std::size_t in_dim, std::size_t out_dim, Rng& rng)
      : w_(Matrix::xavier(out_dim, in_dim, rng)),
        b_(out_dim, 1, 0.0),
        dw_(out_dim, in_dim, 0.0),
        db_(out_dim, 1, 0.0) {}

  Vec forward(const Vec& x) {
    x_cache_ = x;
    Vec z = matvec(w_, x);
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += b_(i, 0);
    y_cache_ = z;  // linear head
    return y_cache_;
  }

  Vec backward(const Vec& dy) {
    const Vec& dz = dy;
    add_outer(dw_, dz, x_cache_);
    for (std::size_t i = 0; i < dz.size(); ++i) db_(i, 0) += dz[i];
    return matvec_transposed(w_, dz);
  }

  std::vector<ParamRef> params() { return {{&w_, &dw_}, {&b_, &db_}}; }

 private:
  Matrix w_, b_;
  Matrix dw_, db_;
  Vec x_cache_, y_cache_;
};

std::vector<double> fit_window(const std::vector<double>& window, std::size_t len) {
  std::vector<double> out(len, window.empty() ? 0.0 : window.front());
  const std::size_t n = std::min(len, window.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[len - 1 - i] = window[window.size() - 1 - i];
  }
  return out;
}

std::vector<Vec> to_sequence(const std::vector<double>& window) {
  std::vector<Vec> seq;
  seq.reserve(window.size());
  for (const double v : window) seq.push_back(Vec{v});
  return seq;
}

/// The pre-rewrite LstmPredictor, RNG consumption order included (the head
/// is initialized before the recurrent layers, exactly as the member order
/// of the real predictor dictates).
class ScalarLstmPredictor {
 public:
  explicit ScalarLstmPredictor(const fifer::TrainConfig& cfg,
                               std::size_t hidden = 32, std::size_t layers = 2)
      : cfg_(cfg), rng_(cfg.seed), head_(hidden, 1, rng_) {
    lstms_.reserve(layers);
    lstms_.emplace_back(1, hidden, rng_);
    for (std::size_t l = 1; l < layers; ++l) lstms_.emplace_back(hidden, hidden, rng_);
  }

  void train(const std::vector<double>& rate_history) {
    const fifer::SequenceDataset ds = fifer::SequenceDataset::build(
        rate_history, cfg_.input_window, cfg_.horizon);
    scale_ = ds.scale;
    std::vector<ParamRef> ps;
    for (auto& l : lstms_) {
      for (auto& p : l.params()) ps.push_back(p);
    }
    for (auto& p : head_.params()) ps.push_back(p);
    fifer::nn::Adam opt(ps, cfg_.learning_rate);
    for (std::size_t epoch = 0; epoch < cfg_.epochs; ++epoch) {
      for (std::size_t e = 0; e < ds.size(); ++e) {
        const double pred = forward(ds.inputs[e]);
        Vec dpred;
        fifer::nn::mse_loss({pred}, {ds.targets[e]}, dpred);
        backward(dpred[0]);
        opt.clip_gradients(cfg_.grad_clip);
        opt.step();
      }
    }
  }

  double forecast(const std::vector<double>& recent_rates) {
    std::vector<double> window = fit_window(recent_rates, cfg_.input_window);
    for (double& v : window) v /= scale_;
    const double pred = forward(window);
    return std::max(0.0, pred * scale_);
  }

 private:
  double forward(const std::vector<double>& window) {
    std::vector<Vec> seq = to_sequence(window);
    last_seq_len_ = seq.size();
    for (auto& layer : lstms_) seq = layer.forward(seq);
    return head_.forward(seq.back())[0];
  }

  void backward(double dpred) {
    std::vector<Vec> dh_seq(last_seq_len_, Vec(32, 0.0));
    dh_seq.back() = head_.backward({dpred});
    for (std::size_t l = lstms_.size(); l-- > 0;) {
      dh_seq = lstms_[l].backward(dh_seq);
    }
  }

  fifer::TrainConfig cfg_;
  double scale_ = 1.0;
  Rng rng_;
  std::vector<LstmLayer> lstms_;
  Dense head_;
  std::size_t last_seq_len_ = 0;
};

}  // namespace legacy

// ------------------------------------------------------------- benchmark

/// Deterministic WITS-like synthetic arrival-rate series (diurnal wave plus
/// two harmonics; no RNG so every run trains on identical data).
std::vector<double> synthetic_rates(std::size_t n) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    out[i] = 120.0 + 60.0 * std::sin(2.0 * M_PI * x / 96.0) +
             18.0 * std::sin(2.0 * M_PI * x / 17.0) +
             7.0 * std::cos(2.0 * M_PI * x / 5.0);
  }
  return out;
}

struct ModelProbe {
  std::string name;
  std::uint64_t forecasts = 0;
  std::uint64_t allocations = 0;
  double us_per_forecast = 0.0;
};

struct TrainRun {
  std::string variant;
  std::size_t shards = 1;
  std::size_t jobs = 1;
  double wall_s = 0.0;
  double examples_per_s = 0.0;
  double fingerprint = 0.0;  ///< forecast on a fixed window (weight hash)
};

void write_json(const std::string& path, const std::vector<ModelProbe>& probes,
                const std::vector<TrainRun>& runs, bool parity_ok,
                std::size_t examples, std::size_t epochs) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_predict: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "{\n"
      << "  \"bench\": \"bench_predict\",\n"
      << "  \"train_examples\": " << examples << ",\n"
      << "  \"train_epochs\": " << epochs << ",\n"
      << "  \"scalar_parity_bit_identical\": " << (parity_ok ? "true" : "false")
      << ",\n"
      << "  \"forecast_probe\": [\n";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const ModelProbe& p = probes[i];
    out << "    {\"model\": \"" << p.name << "\", \"forecasts\": " << p.forecasts
        << ", \"allocations\": " << p.allocations
        << ", \"us_per_forecast\": " << p.us_per_forecast << "}"
        << (i + 1 < probes.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"lstm_training\": [\n";
  const double base =
      runs.empty() ? 0.0 : runs.front().examples_per_s;  // legacy scalar row
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const TrainRun& r = runs[i];
    out << "    {\"variant\": \"" << r.variant << "\", \"shards\": " << r.shards
        << ", \"jobs\": " << r.jobs << ", \"wall_s\": " << r.wall_s
        << ", \"examples_per_s\": " << r.examples_per_s
        << ", \"speedup_vs_scalar\": "
        << (base > 0.0 ? r.examples_per_s / base : 0.0) << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  const auto rates_n = static_cast<std::size_t>(cfg.get_int("rates_n", 420));
  const auto epochs = static_cast<std::size_t>(cfg.get_int("epochs", 8));
  const auto probe_forecasts =
      static_cast<std::uint64_t>(cfg.get_int("probe_forecasts", 2000));
  const auto shards = static_cast<std::size_t>(cfg.get_int("shards", 4));
  const std::string json_out = cfg.get_string("json_out", "");
  fifer::exit_on_unknown_keys(cfg);

  const std::vector<double> rates = synthetic_rates(rates_n);

  fifer::TrainConfig tc;
  tc.seed = 42;
  tc.epochs = epochs;

  const std::vector<double> probe_window(rates.end() - 20, rates.end());

  // ---- gate 1: zero-alloc forecast, all four trainable predictors -------
  fifer::Table probe_table(
      "Forecast hot path — allocations per call after warmup (must be 0)");
  probe_table.set_columns({"model", "forecasts", "allocations", "us_per_forecast"});
  std::vector<ModelProbe> probes;
  bool probe_ok = true;
  for (const auto* name : {"ff", "lstm", "deepar", "wavenet"}) {
    fifer::TrainConfig short_tc = tc;
    short_tc.epochs = 3;  // the probe cares about inference, not fit quality
    auto model = fifer::make_predictor(name, short_tc);
    model->train(rates);
    for (int i = 0; i < 4; ++i) (void)model->forecast(probe_window);  // warmup

    ModelProbe p;
    p.name = name;
    p.forecasts = probe_forecasts;
    const std::uint64_t before = allocs();
    const double t0 = now_s();
    double sink = 0.0;
    for (std::uint64_t i = 0; i < probe_forecasts; ++i) {
      sink += model->forecast(probe_window);
    }
    const double wall = now_s() - t0;
    p.allocations = allocs() - before;
    p.us_per_forecast =
        wall * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, probe_forecasts));
    if (!std::isfinite(sink)) std::abort();  // defeat over-eager optimizers
    probes.push_back(p);
    probe_ok = probe_ok && p.allocations == 0;
    probe_table.add_row({p.name, std::to_string(p.forecasts),
                         std::to_string(p.allocations),
                         fifer::fmt(p.us_per_forecast, 2)});
  }
  probe_table.print(std::cout);
  std::cout << "\n";

  // ---- gate 2 + throughput: scalar LSTM vs kernel LSTM ------------------
  const fifer::SequenceDataset ds =
      fifer::SequenceDataset::build(rates, tc.input_window, tc.horizon);
  const auto total_examples = static_cast<double>(ds.size() * epochs);
  std::vector<TrainRun> runs;

  {
    legacy::ScalarLstmPredictor scalar(tc);
    const double t0 = now_s();
    scalar.train(rates);
    TrainRun r;
    r.variant = "scalar (pre-rewrite)";
    r.wall_s = now_s() - t0;
    r.examples_per_s = total_examples / r.wall_s;
    r.fingerprint = scalar.forecast(probe_window);
    runs.push_back(r);
  }
  {
    fifer::LstmPredictor kernel(tc);  // train_shards defaults to 1
    const double t0 = now_s();
    kernel.train(rates);
    TrainRun r;
    r.variant = "kernels, sequential";
    r.wall_s = now_s() - t0;
    r.examples_per_s = total_examples / r.wall_s;
    r.fingerprint = kernel.forecast(probe_window);
    runs.push_back(r);
  }
  {
    fifer::TrainConfig sh_tc = tc;
    sh_tc.train_shards = shards;
    fifer::LstmPredictor sharded(sh_tc);
    const double t0 = now_s();
    sharded.train(rates);
    TrainRun r;
    r.variant = "kernels, sharded";
    r.shards = shards;
    r.jobs = std::min(shards, fifer::default_jobs());
    r.wall_s = now_s() - t0;
    r.examples_per_s = total_examples / r.wall_s;
    r.fingerprint = sharded.forecast(probe_window);
    runs.push_back(r);
  }

  fifer::Table train_table("LSTM training throughput — " +
                           std::to_string(ds.size()) + " examples x " +
                           std::to_string(epochs) + " epochs");
  train_table.set_columns(
      {"variant", "shards", "jobs", "wall_s", "examples_per_s", "speedup"});
  for (const TrainRun& r : runs) {
    train_table.add_row({r.variant, std::to_string(r.shards),
                         std::to_string(r.jobs), fifer::fmt(r.wall_s, 2),
                         fifer::fmt(r.examples_per_s, 0),
                         fifer::fmt(r.examples_per_s / runs.front().examples_per_s, 2) + "x"});
  }
  train_table.print(std::cout);

  const bool parity_ok = runs[0].fingerprint == runs[1].fingerprint;
  std::cout << "\nScalar-path parity: scalar forecast "
            << fifer::fmt(runs[0].fingerprint, 6) << " req/s vs kernel "
            << fifer::fmt(runs[1].fingerprint, 6) << " req/s — "
            << (parity_ok ? "bit-identical" : "MISMATCH") << "\n"
            << "Sharded (" << shards << "-shard ordered reduction) forecast: "
            << fifer::fmt(runs[2].fingerprint, 6)
            << " req/s (different arithmetic by design, deterministic per "
               "shard count)\n";

  if (!json_out.empty()) {
    write_json(json_out, probes, runs, parity_ok, ds.size(), epochs);
  }

  if (!probe_ok) {
    std::cerr << "\nFAIL: forecast() allocated on a warmed-up hot path "
                 "(expected 0 — DESIGN.md §5i)\n";
    return 1;
  }
  if (!parity_ok) {
    std::cerr << "\nFAIL: kernel-path LSTM diverged from the scalar "
                 "reference (bit-exactness contract — kernels.hpp)\n";
    return 1;
  }
  return 0;
}
