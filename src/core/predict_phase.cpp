#include "core/predict_phase.hpp"

#include <algorithm>
#include <thread>

namespace mmog::core {

ParallelPredictor::ParallelPredictor(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_ = threads;
  if (threads_ > 1) {
    team_ = std::make_unique<util::ShardTeam>(threads_);
  }
}

/// Everything one dispatch needs, stack-owned by run(): the team passes a
/// raw pointer to it, so the per-step fan-out allocates nothing.
struct ParallelPredictor::RunContext {
  std::span<const PredictSlot> slots;
  std::size_t phase;
  obs::Recorder* rec;
};

// mmog-lint: hot-begin(predict)
void ParallelPredictor::run_range(std::span<const PredictSlot> slots,
                                  std::size_t first, std::size_t phase,
                                  obs::Recorder* rec) {
  if (!rec) {
    for (const auto& slot : slots) *slot.out = slot.predictor->predict();
    return;
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const PredictSlot& slot = slots[i];
    if ((first + i) % kInferenceSampleStride != phase) {
      *slot.out = slot.predictor->predict();
      continue;
    }
    const obs::Stopwatch watch;
    *slot.out = slot.predictor->predict();
    rec->observe_us("predictor.inference_us", watch.elapsed_us());
  }
}

void ParallelPredictor::shard_entry(void* ctx, std::size_t shard,
                                    std::size_t shards) {
  auto& run = *static_cast<RunContext*>(ctx);
  // At most one contiguous chunk per worker, trailing workers idle when
  // there are fewer slots than shards.
  const std::size_t used = std::min(run.slots.size(), shards);
  const std::size_t chunk = (run.slots.size() + used - 1) / used;
  const std::size_t begin = shard * chunk;
  const std::size_t end = std::min(run.slots.size(), begin + chunk);
  if (begin >= end) return;
  const obs::Stopwatch watch;
  run_range(run.slots.subspan(begin, end - begin), begin, run.phase, run.rec);
  if (run.rec) {
    run.rec->observe_us("phase.predict_shard_us", watch.elapsed_us());
  }
}

void ParallelPredictor::run(std::span<const PredictSlot> slots,
                            obs::Recorder* rec) {
  const std::size_t phase = runs_++ % kInferenceSampleStride;
  if (!team_ || slots.size() <= 1) {
    // threads == 1: the historical serial code path, untouched by any team.
    run_range(slots, 0, phase, rec);
    return;
  }
  RunContext ctx{slots, phase, rec};
  // The join inside run() is the determinism barrier: every slot is written
  // before the caller reads any prediction; a worker's exception is
  // rethrown here.
  team_->run(&ParallelPredictor::shard_entry, &ctx);
}
// mmog-lint: hot-end

}  // namespace mmog::core
