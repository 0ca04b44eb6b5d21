#include "nn/mlp.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mmog::nn {

Mlp::Mlp(std::vector<std::size_t> layer_sizes, util::Rng& rng)
    : layer_sizes_(std::move(layer_sizes)) {
  if (layer_sizes_.size() < 2) {
    throw std::invalid_argument("Mlp: need at least input and output layers");
  }
  for (std::size_t s : layer_sizes_) {
    if (s == 0) throw std::invalid_argument("Mlp: zero-size layer");
  }
  layers_.resize(layer_sizes_.size() - 1);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    layer.in = layer_sizes_[l];
    layer.out = layer_sizes_[l + 1];
    layer.weights.resize(layer.in * layer.out);
    layer.biases.assign(layer.out, 0.0);
    layer.w_moment.assign(layer.weights.size(), 0.0);
    layer.b_moment.assign(layer.out, 0.0);
    const double scale =
        std::sqrt(6.0 / static_cast<double>(layer.in + layer.out));
    for (auto& w : layer.weights) w = rng.uniform(-scale, scale);
  }
}

std::size_t Mlp::parameter_count() const noexcept {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.weights.size() + l.biases.size();
  return n;
}

void Mlp::forward_recording(
    std::span<const double> input,
    std::vector<std::vector<double>>& activations) const {
  activations.clear();
  activations.emplace_back(input.begin(), input.end());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const auto& prev = activations.back();
    std::vector<double> next(layer.out, 0.0);
    const bool is_output = (l + 1 == layers_.size());
    for (std::size_t o = 0; o < layer.out; ++o) {
      double z = layer.biases[o];
      const double* wrow = &layer.weights[o * layer.in];
      for (std::size_t i = 0; i < layer.in; ++i) z += wrow[i] * prev[i];
      next[o] = is_output ? z : std::tanh(z);
    }
    activations.push_back(std::move(next));
  }
}

std::size_t Mlp::scratch_size() const noexcept {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.out;
  return n;
}

// mmog-lint: hot-begin(predict)
std::span<const double> Mlp::forward_into(std::span<const double> input,
                                          std::span<double> scratch) const {
  assert(input.size() == input_size() && scratch.size() >= scratch_size());
  std::span<const double> prev = input;
  double* next = scratch.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const bool is_output = (l + 1 == layers_.size());
    for (std::size_t o = 0; o < layer.out; ++o) {
      double z = layer.biases[o];
      const double* wrow = &layer.weights[o * layer.in];
      for (std::size_t i = 0; i < layer.in; ++i) z += wrow[i] * prev[i];
      next[o] = is_output ? z : std::tanh(z);
    }
    prev = {next, layer.out};
    next += layer.out;
  }
  return prev;
}
// mmog-lint: hot-end

std::vector<double> Mlp::forward(std::span<const double> input) const {
  if (input.size() != input_size()) {
    throw std::invalid_argument("Mlp::forward: wrong input size");
  }
  std::vector<double> scratch(scratch_size());
  const auto out = forward_into(input, scratch);
  return {out.begin(), out.end()};
}

double Mlp::train_step(std::span<const double> input,
                       std::span<const double> target, double lr,
                       double momentum) {
  if (input.size() != input_size() || target.size() != output_size()) {
    throw std::invalid_argument("Mlp::train_step: wrong input/target size");
  }
  std::vector<std::vector<double>> acts;
  forward_recording(input, acts);

  // delta for the output layer (linear): dE/dz = (y - t)
  std::vector<double> delta(output_size());
  double sq_err = 0.0;
  for (std::size_t o = 0; o < output_size(); ++o) {
    const double err = acts.back()[o] - target[o];
    delta[o] = err;
    sq_err += err * err;
  }

  // Backwards through the layers.
  for (std::size_t li = layers_.size(); li-- > 0;) {
    Layer& layer = layers_[li];
    const auto& in_act = acts[li];
    // Gradient step for this layer's parameters.
    std::vector<double> prev_delta(layer.in, 0.0);
    for (std::size_t o = 0; o < layer.out; ++o) {
      double* wrow = &layer.weights[o * layer.in];
      double* mrow = &layer.w_moment[o * layer.in];
      for (std::size_t i = 0; i < layer.in; ++i) {
        prev_delta[i] += wrow[i] * delta[o];
        const double grad = delta[o] * in_act[i];
        mrow[i] = momentum * mrow[i] - lr * grad;
        wrow[i] += mrow[i];
      }
      layer.b_moment[o] = momentum * layer.b_moment[o] - lr * delta[o];
      layer.biases[o] += layer.b_moment[o];
    }
    if (li > 0) {
      // Through the tanh of the previous layer: dtanh = 1 - a^2.
      for (std::size_t i = 0; i < layer.in; ++i) {
        prev_delta[i] *= 1.0 - in_act[i] * in_act[i];
      }
      delta = std::move(prev_delta);
    }
  }
  return sq_err;
}

double Mlp::evaluate_mse(std::span<const std::vector<double>> inputs,
                         std::span<const std::vector<double>> targets) const {
  if (inputs.size() != targets.size()) {
    throw std::invalid_argument("Mlp::evaluate_mse: size mismatch");
  }
  if (inputs.empty()) return 0.0;
  double total = 0.0;
  std::size_t terms = 0;
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    const auto out = forward(inputs[s]);
    for (std::size_t o = 0; o < out.size(); ++o) {
      const double err = out[o] - targets[s][o];
      total += err * err;
      ++terms;
    }
  }
  return total / static_cast<double>(terms);
}

std::vector<double> Mlp::parameters() const {
  std::vector<double> p;
  p.reserve(parameter_count());
  for (const auto& l : layers_) {
    p.insert(p.end(), l.weights.begin(), l.weights.end());
    p.insert(p.end(), l.biases.begin(), l.biases.end());
  }
  return p;
}

void Mlp::set_parameters(std::span<const double> params) {
  if (params.size() != parameter_count()) {
    throw std::invalid_argument("Mlp::set_parameters: size mismatch");
  }
  std::size_t pos = 0;
  for (auto& l : layers_) {
    for (auto& w : l.weights) w = params[pos++];
    for (auto& b : l.biases) b = params[pos++];
  }
}

}  // namespace mmog::nn
