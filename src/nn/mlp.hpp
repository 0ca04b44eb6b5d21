#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace mmog::nn {

/// A small fully-connected multi-layer perceptron with tanh hidden units and
/// a linear output layer, trained with stochastic back-propagation.
///
/// The paper's MMOG load predictor uses a (6,3,1) structure: 6 inputs (the
/// last six normalized entity counts of a sub-zone), one hidden layer of 3,
/// one output (the next count). This class is general: any layer vector with
/// at least two layers (input + output) is accepted.
class Mlp {
 public:
  /// Builds the network with the given layer sizes (first = inputs,
  /// last = outputs) and Xavier-style random initial weights.
  /// Throws std::invalid_argument for fewer than two layers or a zero size.
  Mlp(std::vector<std::size_t> layer_sizes, util::Rng& rng);

  /// Number of inputs / outputs.
  std::size_t input_size() const noexcept { return layer_sizes_.front(); }
  std::size_t output_size() const noexcept { return layer_sizes_.back(); }

  /// Layer sizes as passed at construction (input first, output last).
  const std::vector<std::size_t>& layer_sizes() const noexcept {
    return layer_sizes_;
  }

  /// Total number of trainable parameters (weights + biases).
  std::size_t parameter_count() const noexcept;

  /// Doubles of scratch forward_into needs: the activations of every layer
  /// after the input.
  std::size_t scratch_size() const noexcept;

  /// Forward pass into caller scratch: `input.size()` must equal
  /// input_size() and `scratch` hold at least scratch_size() doubles.
  /// Returns the output layer, a view into `scratch`. Allocation-free, and
  /// the same operations in the same order as forward().
  std::span<const double> forward_into(std::span<const double> input,
                                       std::span<double> scratch) const;

  /// Forward pass. `input.size()` must equal input_size().
  std::vector<double> forward(std::span<const double> input) const;

  /// One step of back-propagation towards `target` with learning rate `lr`
  /// and classical momentum. Returns the squared error before the update.
  double train_step(std::span<const double> input,
                    std::span<const double> target, double lr,
                    double momentum = 0.0);

  /// Mean squared error over a batch (no weight updates).
  double evaluate_mse(std::span<const std::vector<double>> inputs,
                      std::span<const std::vector<double>> targets) const;

  /// Raw parameters, layer by layer (weights row-major, then biases); usable
  /// for checkpointing and exact-restore in tests.
  std::vector<double> parameters() const;

  /// Restores parameters captured by parameters(). Throws
  /// std::invalid_argument on a size mismatch.
  void set_parameters(std::span<const double> params);

 private:
  struct Layer {
    std::size_t in = 0;
    std::size_t out = 0;
    std::vector<double> weights;   // out x in, row-major
    std::vector<double> biases;    // out
    std::vector<double> w_moment;  // momentum buffers
    std::vector<double> b_moment;
  };

  // Forward pass that also records per-layer pre-activations/activations.
  void forward_recording(std::span<const double> input,
                         std::vector<std::vector<double>>& activations) const;

  std::vector<std::size_t> layer_sizes_;
  std::vector<Layer> layers_;
};

}  // namespace mmog::nn
