#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/preprocess.hpp"
#include "nn/train.hpp"
#include "predict/predictor.hpp"
#include "util/ring_buffer.hpp"
#include "util/timeseries.hpp"

namespace mmog::predict {

/// Configuration of the paper's neural predictor (§IV-C): a three-layer
/// (6,3,1) MLP fed through polynomial signal preprocessors and min-max
/// normalization, trained offline on collected entity-count samples.
struct NeuralConfig {
  std::size_t input_window = 6;   ///< past samples fed to the network
  std::size_t hidden_units = 3;   ///< hidden-layer width
  std::size_t smoother_degree = 2;
  std::size_t smoother_window = 5;
  double train_fraction = 0.8;    ///< train/test split of the history
  nn::TrainConfig train;          ///< era-based training parameters
  std::uint64_t seed = 99;        ///< weight initialization seed
  /// Predict the *change* from the last raw sample instead of the absolute
  /// level. A small MLP trained on levels compresses its output towards the
  /// training mean; even a sub-percent level bias, correlated across every
  /// sub-zone sharing the model, systematically under-provisions the daily
  /// peaks. Delta prediction removes the level bias entirely.
  bool predict_delta = true;
  /// Feed the raw (unsmoothed) last sample as the newest of the
  /// input_window inputs. The network then sees both the denoised trend and
  /// the instantaneous deviation from it, and can learn how much of that
  /// deviation to revert — optimal filtering on noisy sub-zone counts.
  bool include_raw_input = true;
};

/// The immutable trained artifact: one low-complexity network shared by all
/// per-zone predictor instances (the data-collection and training phases of
/// §IV-C happen once, offline).
class NeuralModel {
 public:
  /// Runs the two offline phases on the collected per-zone histories:
  /// assembles (window -> next) samples from every series, splits
  /// train/test, and trains to convergence. Throws std::invalid_argument
  /// when the histories are too short to form a single sample.
  static NeuralModel fit(const NeuralConfig& config,
                         std::span<const util::TimeSeries> histories);

  /// Convenience overload for a single series.
  static NeuralModel fit(const NeuralConfig& config,
                         const util::TimeSeries& history);

  /// Predicts the next value from the most recent raw samples (at least
  /// one; inputs shorter than context() are left-padded with the first
  /// value). Every input goes through feature() and the network through
  /// infer(), so this is the reference NeuralPredictor matches bit for bit.
  double predict_next(std::span<const double> recent) const;

  /// Raw samples one prediction reads: input_window + smoother_window.
  std::size_t context() const noexcept {
    return config_.input_window + config_.smoother_window;
  }

  /// Doubles of scratch feature() and infer() need.
  std::size_t scratch_size() const noexcept;

  /// One network input before normalization: the polynomial smoothing of
  /// `window`, exactly smoother_window raw samples, oldest first.
  double feature(std::span<const double> window,
                 std::span<double> scratch) const;

  /// The prediction from input_window features, oldest first, and the
  /// newest raw sample. The features arrive as two contiguous pieces,
  /// `older` then `newer`: the shape a wrapped util::RingBuffer exposes.
  double infer(std::span<const double> older, std::span<const double> newer,
               double last_raw, std::span<double> scratch) const;

  const NeuralConfig& config() const noexcept { return config_; }
  const nn::TrainResult& train_result() const noexcept { return result_; }

  /// Writes the trained artifact as text: a magic/version line, the config,
  /// the normalizer range, the delta scale and training outcome, then the
  /// network via nn::save_mlp. Full-precision formatting makes
  /// save -> load -> save byte-identical, so checkpoints embedding a model
  /// can be compared byte-for-byte.
  void save(std::ostream& out) const;

  /// Reads a model written by save(); restoring skips the offline training
  /// phase entirely. Throws std::runtime_error on a malformed stream.
  static NeuralModel load(std::istream& in);

 private:
  NeuralModel(NeuralConfig config, nn::Mlp net,
              nn::MinMaxNormalizer normalizer, double delta_scale,
              nn::TrainResult result);

  NeuralConfig config_;
  nn::Mlp net_;
  nn::MinMaxNormalizer normalizer_;
  double delta_scale_ = 1.0;  ///< |delta| normalization (delta mode)
  nn::PolynomialSmoother smoother_;
  nn::TrainResult result_;
};

/// Online per-zone wrapper around a shared trained NeuralModel. Before any
/// observation it predicts 0; with fewer samples than the model's context
/// it pads, and every prediction is bit-identical to
/// NeuralModel::predict_next over the retained samples.
///
/// The raw samples live in a ring of context() values, the checkpoint
/// payload. A second ring caches the last input_window features.
/// predict_next smooths one window per input, but each step's windows are
/// the previous step's shifted by one sample: the left padding is the
/// oldest retained sample, which only changes once the raw ring is full,
/// and from then on no window needs padding. So observe() smooths only the
/// window ending at the new sample, and predict() normalizes the cached
/// features and runs the network. Neither allocates; both use scratch sized
/// at construction.
///
/// predict() is const but writes this instance's scratch, so one instance
/// must not predict on two threads at once. The simulator hands each
/// predictor to exactly one worker.
class NeuralPredictor final : public Predictor {
 public:
  explicit NeuralPredictor(std::shared_ptr<const NeuralModel> model);

  std::string_view name() const noexcept override { return "Neural"; }
  void observe(double value) override;
  double predict() const override;
  std::unique_ptr<Predictor> make_fresh() const override;
  /// Saves the raw samples, oldest first. load_state() replays them through
  /// observe(), which rebuilds the same feature cache.
  void save_state(std::vector<double>& out) const override;
  void load_state(std::span<const double> in) override;

 private:
  std::shared_ptr<const NeuralModel> model_;
  util::RingBuffer<double> history_;   ///< raw samples, newest last
  util::RingBuffer<double> features_;  ///< smoothed windows, newest last
  std::vector<double> window_;         ///< the padded window observe() smooths
  mutable std::vector<double> scratch_;
};

}  // namespace mmog::predict
