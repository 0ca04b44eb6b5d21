#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mmog::util {

/// A persistent fork-join worker team for per-step sharded phases, and the
/// project's one thread primitive. run() dispatches one raw function
/// pointer + context to every worker and joins them without a single
/// allocation — exactly what the hot simulation phases need to stay
/// allocation-free under the allocs/step gate (tests/core/alloc_gate_test).
///
/// Determinism contract: run(task, ctx) invokes task(ctx, shard, shards)
/// once for every shard in [0, threads()), each on its own thread (shard 0
/// on the calling thread), and returns only after all shards finished. The
/// caller partitions its work so shards write pairwise disjoint slots; the
/// join is the barrier that makes every write visible before the serial
/// commit reads it. Which thread runs a shard never influences results.
///
/// run() is externally synchronized: one caller at a time (the simulation
/// loop). A shard's exception is captured and rethrown from run() on the
/// calling thread (first one wins); the remaining shards still complete, so
/// the team stays reusable afterwards.
class ShardTeam {
 public:
  /// The task signature: process shard `shard` of `shards` total.
  using Task = void (*)(void* ctx, std::size_t shard, std::size_t shards);

  /// Spawns `threads - 1` workers (shard 0 runs on the caller). `threads`
  /// is clamped to at least 1; threads == 1 means run() simply calls the
  /// task inline with no synchronization at all.
  explicit ShardTeam(std::size_t threads);
  ~ShardTeam();

  ShardTeam(const ShardTeam&) = delete;
  ShardTeam& operator=(const ShardTeam&) = delete;

  std::size_t threads() const noexcept { return threads_; }

  /// Runs task(ctx, s, threads()) for every shard s and joins.
  void run(Task task, void* ctx);

 private:
  void worker_loop(std::size_t shard);

  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_ready_;
  CondVar work_done_;
  std::uint64_t epoch_ GUARDED_BY(mutex_) = 0;
  Task task_ GUARDED_BY(mutex_) = nullptr;
  void* ctx_ GUARDED_BY(mutex_) = nullptr;
  std::size_t remaining_ GUARDED_BY(mutex_) = 0;
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ GUARDED_BY(mutex_);
};

}  // namespace mmog::util
