#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "obs/recorder.hpp"
#include "predict/predictor.hpp"
#include "util/shard_team.hpp"

namespace mmog::core {

/// One unit of work for the predict phase: read a predictor, write its
/// one-step forecast into a caller-owned slot. Slots must be pairwise
/// disjoint — each worker touches only the slots of its own shard.
struct PredictSlot {
  const predict::Predictor* predictor = nullptr;
  double* out = nullptr;
};

/// Runs the per-step predict phase of core::simulate over a flat list of
/// group streams (§IV-B predicts each sub-zone independently, so the phase
/// is embarrassingly parallel). The slot list is partitioned into contiguous
/// shards, one per worker; every worker writes only its own preallocated
/// `out` slots, and the caller reduces them in fixed index order afterwards,
/// so the results are bit-identical to the serial path for any thread count:
/// Predictor::predict() is const (no observation happens here), the shared
/// trained models are immutable, and IEEE arithmetic inside one predictor
/// does not depend on which thread executes it.
///
/// The workers are a persistent util::ShardTeam, so the per-step dispatch
/// performs zero heap allocations. Predict is the only phase of the step
/// that is sharded: padding, matching, fault injection, replacement and
/// accounting run serially on the calling thread, where a team dispatch
/// costs more than the work it would spread (DESIGN.md §10).
///
/// threads == 1 keeps everything on the calling thread with no team at all
/// (exactly the historical serial code path); threads == 0 resolves to the
/// hardware concurrency.
class ParallelPredictor {
 public:
  explicit ParallelPredictor(std::size_t threads = 1);

  /// The resolved worker count (>= 1).
  std::size_t threads() const noexcept { return threads_; }

  /// Predicts every slot. With a recorder, each prediction is timed into
  /// the "predictor.inference_us" histogram and each shard's wall time into
  /// "phase.predict_shard_us" (parallel path only). Exceptions thrown by a
  /// predictor are rethrown on the calling thread (first one wins).
  void run(std::span<const PredictSlot> slots, obs::Recorder* rec);

 private:
  struct RunContext;
  static void shard_entry(void* ctx, std::size_t shard, std::size_t shards);
  static void run_range(std::span<const PredictSlot> slots,
                        obs::Recorder* rec);

  std::size_t threads_ = 1;
  std::unique_ptr<util::ShardTeam> team_;
};

}  // namespace mmog::core
