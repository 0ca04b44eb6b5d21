#include "predict/neural.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <iomanip>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace mmog::predict {

NeuralModel::NeuralModel(NeuralConfig config, nn::Mlp net,
                         nn::MinMaxNormalizer normalizer, double delta_scale,
                         nn::TrainResult result)
    : config_(config),
      net_(std::move(net)),
      normalizer_(normalizer),
      delta_scale_(delta_scale),
      smoother_(config.smoother_degree, config.smoother_window),
      result_(result) {}

NeuralModel NeuralModel::fit(const NeuralConfig& config,
                             std::span<const util::TimeSeries> histories) {
  if (config.input_window == 0) {
    throw std::invalid_argument("NeuralModel: input_window == 0");
  }
  // Global normalization range over all collected samples.
  nn::MinMaxNormalizer normalizer;
  std::vector<double> all;
  for (const auto& h : histories) {
    all.insert(all.end(), h.values().begin(), h.values().end());
  }
  if (all.empty()) throw std::invalid_argument("NeuralModel: empty history");
  normalizer.fit(all);
  // Leave headroom above the observed maximum: tanh units compress the top
  // of the fitted range, and systematic under-prediction exactly at the
  // daily peaks is what causes under-allocation events downstream.
  normalizer.update(normalizer.hi() + 0.25 * (normalizer.hi() - normalizer.lo()));

  const nn::PolynomialSmoother smoother(config.smoother_degree,
                                        config.smoother_window);

  // In delta mode the targets are per-step changes normalized by the
  // largest observed change, so the network output lives in [-1, 1].
  double delta_scale = 1.0;
  if (config.predict_delta) {
    double max_delta = 0.0;
    for (const auto& h : histories) {
      for (std::size_t t = 1; t < h.size(); ++t) {
        max_delta = std::max(max_delta, std::abs(h[t] - h[t - 1]));
      }
    }
    if (max_delta > 0.0) delta_scale = max_delta;
  }

  nn::Dataset data;
  for (const auto& h : histories) {
    if (h.size() <= config.input_window) continue;
    // Causal polynomial smoothing removes noise before windowing (§IV-C).
    const auto smoothed = smoother.smooth_series(h.values());
    for (std::size_t t = config.input_window; t < h.size(); ++t) {
      std::vector<double> in(config.input_window);
      for (std::size_t k = 0; k < config.input_window; ++k) {
        in[k] = normalizer.transform(smoothed[t - config.input_window + k]);
      }
      if (config.include_raw_input) {
        in.back() = normalizer.transform(h[t - 1]);
      }
      data.inputs.push_back(std::move(in));
      if (config.predict_delta) {
        data.targets.push_back({(h[t] - h[t - 1]) / delta_scale});
      } else {
        data.targets.push_back({normalizer.transform(h[t])});
      }
    }
  }
  if (data.empty()) {
    throw std::invalid_argument("NeuralModel: histories too short");
  }
  auto [train_set, test_set] = data.split(config.train_fraction);
  if (train_set.empty()) {
    train_set = std::move(test_set);
    test_set = {};
  }

  util::Rng rng(config.seed);
  nn::Mlp net({config.input_window, config.hidden_units, 1}, rng);
  const auto result = nn::train(net, train_set, test_set, config.train);
  return NeuralModel(config, std::move(net), normalizer, delta_scale, result);
}

NeuralModel NeuralModel::fit(const NeuralConfig& config,
                             const util::TimeSeries& history) {
  return fit(config, std::span<const util::TimeSeries>(&history, 1));
}

double NeuralModel::predict_next(std::span<const double> recent) const {
  if (recent.empty()) return 0.0;
  // Reproduce the training-time features exactly: each of the input_window
  // samples is smoothed over its own trailing smoother window. Left-pad with
  // the earliest available value when the history is short.
  const std::size_t width = context();
  std::vector<double> padded(width, recent.front());
  const std::size_t n = std::min(recent.size(), width);
  for (std::size_t k = 0; k < n; ++k) {
    padded[width - n + k] = recent[recent.size() - n + k];
  }
  std::vector<double> features(config_.input_window);
  std::vector<double> scratch(scratch_size());
  for (std::size_t k = 0; k < config_.input_window; ++k) {
    features[k] = feature(
        std::span<const double>(padded).subspan(k + 1, config_.smoother_window),
        scratch);
  }
  return infer(features, {}, recent.back(), scratch);
}

std::size_t NeuralModel::scratch_size() const noexcept {
  return std::max(smoother_.scratch_size(),
                  config_.input_window + net_.scratch_size());
}

// mmog-lint: hot-begin(predict)
double NeuralModel::feature(std::span<const double> window,
                            std::span<double> scratch) const {
  assert(window.size() == config_.smoother_window);
  return smoother_.smooth_last(window, scratch);
}

double NeuralModel::infer(std::span<const double> older,
                          std::span<const double> newer, double last_raw,
                          std::span<double> scratch) const {
  const std::size_t w = config_.input_window;
  assert(older.size() + newer.size() == w &&
         scratch.size() >= scratch_size());
  double* in = scratch.data();
  for (const double f : older) *in++ = normalizer_.transform(f);
  for (const double f : newer) *in++ = normalizer_.transform(f);
  if (config_.include_raw_input) {
    scratch[w - 1] = normalizer_.transform(last_raw);
  }
  const double out = net_.forward_into(scratch.first(w), scratch.subspan(w))[0];
  // Entity counts are non-negative.
  if (config_.predict_delta) {
    return std::max(0.0, last_raw + out * delta_scale_);
  }
  return std::max(0.0, normalizer_.inverse(out));
}
// mmog-lint: hot-end

namespace {
constexpr const char* kNeuralMagic = "mmog-neural-v1";
}

void NeuralModel::save(std::ostream& out) const {
  out << kNeuralMagic << '\n';
  out << std::setprecision(17);
  out << config_.input_window << ' ' << config_.hidden_units << ' '
      << config_.smoother_degree << ' ' << config_.smoother_window << ' '
      << config_.train_fraction << ' ' << config_.seed << ' '
      << (config_.predict_delta ? 1 : 0) << ' '
      << (config_.include_raw_input ? 1 : 0) << '\n';
  out << config_.train.max_eras << ' ' << config_.train.learning_rate << ' '
      << config_.train.momentum << ' ' << config_.train.target_rmse << ' '
      << config_.train.patience << ' ' << (config_.train.shuffle ? 1 : 0)
      << ' ' << config_.train.shuffle_seed << '\n';
  out << normalizer_.lo() << ' ' << normalizer_.hi() << ' ' << delta_scale_
      << '\n';
  out << result_.eras << ' ' << result_.train_rmse << ' '
      << result_.test_rmse << ' ' << (result_.converged ? 1 : 0) << '\n';
  nn::save_mlp(out, net_);
}

NeuralModel NeuralModel::load(std::istream& in) {
  std::string magic;
  if (!(in >> magic) || magic != kNeuralMagic) {
    throw std::runtime_error("NeuralModel::load: bad magic");
  }
  NeuralConfig config;
  int predict_delta = 0;
  int include_raw = 0;
  if (!(in >> config.input_window >> config.hidden_units >>
        config.smoother_degree >> config.smoother_window >>
        config.train_fraction >> config.seed >> predict_delta >>
        include_raw)) {
    throw std::runtime_error("NeuralModel::load: truncated config");
  }
  config.predict_delta = predict_delta != 0;
  config.include_raw_input = include_raw != 0;
  int shuffle = 0;
  if (!(in >> config.train.max_eras >> config.train.learning_rate >>
        config.train.momentum >> config.train.target_rmse >>
        config.train.patience >> shuffle >> config.train.shuffle_seed)) {
    throw std::runtime_error("NeuralModel::load: truncated train config");
  }
  config.train.shuffle = shuffle != 0;
  double lo = 0.0;
  double hi = 1.0;
  double delta_scale = 1.0;
  if (!(in >> lo >> hi >> delta_scale) || !(hi > lo)) {
    throw std::runtime_error("NeuralModel::load: bad normalizer range");
  }
  // fit() on the saved endpoints restores lo/hi exactly: the saved range
  // always satisfies hi > lo, so fit applies no adjustment.
  nn::MinMaxNormalizer normalizer;
  const std::array<double, 2> range{lo, hi};
  normalizer.fit(range);
  nn::TrainResult result;
  int converged = 0;
  if (!(in >> result.eras >> result.train_rmse >> result.test_rmse >>
        converged)) {
    throw std::runtime_error("NeuralModel::load: truncated train result");
  }
  result.converged = converged != 0;
  nn::Mlp net = nn::load_mlp(in);
  if (net.layer_sizes() !=
      std::vector<std::size_t>{config.input_window, config.hidden_units,
                               1}) {
    throw std::runtime_error("NeuralModel::load: network shape mismatch");
  }
  return NeuralModel(config, std::move(net), normalizer, delta_scale,
                     result);
}

namespace {

const NeuralModel& checked(const std::shared_ptr<const NeuralModel>& model) {
  if (!model) throw std::invalid_argument("NeuralPredictor: null model");
  return *model;
}

}  // namespace

NeuralPredictor::NeuralPredictor(std::shared_ptr<const NeuralModel> model)
    : model_(std::move(model)),
      history_(checked(model_).context()),
      features_(model_->config().input_window),
      window_(model_->config().smoother_window),
      scratch_(model_->scratch_size()) {}

// mmog-lint: hot-begin(predict)
void NeuralPredictor::observe(double value) {
  history_.push(value);
  // The window ending at the new sample, left-padded with the oldest
  // retained sample exactly as predict_next pads.
  const std::size_t w = window_.size();
  const std::size_t n = std::min(w, history_.size());
  std::fill(window_.begin(), window_.end() - static_cast<std::ptrdiff_t>(n),
            history_.front());
  for (std::size_t k = 0; k < n; ++k) {
    window_[w - n + k] = history_[history_.size() - n + k];
  }
  features_.push(model_->feature(window_, scratch_));
  // On the first sample every earlier window is all padding: the same bits.
  while (!features_.full()) features_.push(features_.back());
}

double NeuralPredictor::predict() const {
  if (history_.empty()) return 0.0;
  return model_->infer(features_.first(), features_.second(),
                       history_.back(), scratch_);
}
// mmog-lint: hot-end

std::unique_ptr<Predictor> NeuralPredictor::make_fresh() const {
  return std::make_unique<NeuralPredictor>(model_);
}

void NeuralPredictor::save_state(std::vector<double>& out) const {
  out.push_back(static_cast<double>(history_.size()));
  const auto older = history_.first();
  const auto newer = history_.second();
  out.insert(out.end(), older.begin(), older.end());
  out.insert(out.end(), newer.begin(), newer.end());
}

void NeuralPredictor::load_state(std::span<const double> in) {
  // The count comes from a checkpoint file: range-check it before the cast.
  if (in.empty() || !(in[0] >= 0.0) ||
      in[0] > static_cast<double>(history_.capacity())) {
    throw std::invalid_argument("NeuralPredictor: bad state size");
  }
  const auto n = static_cast<std::size_t>(in[0]);
  if (in.size() != 1 + n) {
    throw std::invalid_argument("NeuralPredictor: bad state size");
  }
  history_.clear();
  features_.clear();
  for (const double value : in.subspan(1)) observe(value);
}

}  // namespace mmog::predict
