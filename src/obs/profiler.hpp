#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/alloccount.hpp"

namespace mmog::obs {

class Registry;

/// Per-run resource profiler (PR 8): the owner of everything "how much did
/// it cost" that the plain phase timers do not cover.
///
/// Attached via Recorder::enable_profiler(). While alive it
///   * arms the global allocation-counting hooks (util/alloccount), which
///     lets PhaseScope difference totals around each phase and publish
///     `phase.<name>_allocs` / `phase.<name>_alloc_bytes` histograms next
///     to the existing `phase.<name>_us` ones;
///   * tracks run throughput and process RSS: core::simulate calls
///     begin_run() before its step loop and note_step() every
///     kPublishEverySteps completed steps and on the run's last step,
///     which updates the `sim.steps_per_sec`, `sim.group_steps_per_sec`,
///     `proc.current_rss_kb` and `proc.peak_rss_kb` gauges and mirrors
///     them into lock-free atomics the telemetry server reads for /healthz.
///
/// Everything recorded is observational (gauges and histograms, never
/// counters): RunReport outcome sections include every counter and must be
/// byte-identical with profiling on or off — the determinism property
/// tests enforce exactly that.
class ResourceProfiler {
 public:
  /// note_step() reads /proc/self/statm and calls getrusage, which costs
  /// more than a fast step; the simulator publishes this often.
  static constexpr std::uint64_t kPublishEverySteps = 64;

  ResourceProfiler() = default;

  /// Marks the start of a simulation run with `total_groups` server
  /// groups. Called on the simulation thread before the step loop; resets
  /// the throughput clock (a recorder created long before simulate() —
  /// e.g. across neural-predictor training — must not dilute steps/s).
  void begin_run(std::uint64_t total_groups) noexcept;

  /// Publishes throughput and RSS after `steps_done` completed steps.
  /// Called on the simulation thread every kPublishEverySteps steps and
  /// on the run's last step, so the gauges end on the final value.
  void note_step(Registry& registry, std::uint64_t steps_done);

  double steps_per_sec() const noexcept {
    return steps_per_sec_.load(std::memory_order_relaxed);
  }
  double group_steps_per_sec() const noexcept {
    return group_steps_per_sec_.load(std::memory_order_relaxed);
  }
  std::uint64_t current_rss_kb() const noexcept {
    return current_rss_kb_.load(std::memory_order_relaxed);
  }
  std::uint64_t peak_rss_kb() const noexcept {
    return peak_rss_kb_.load(std::memory_order_relaxed);
  }

 private:
  /// Arms the allocation hooks for the profiler's lifetime; without a live
  /// profiler every hook is one relaxed flag load.
  util::alloccount::Scope arm_;
  std::chrono::steady_clock::time_point run_start_{};
  std::uint64_t total_groups_ = 0;
  std::atomic<double> steps_per_sec_{0.0};
  std::atomic<double> group_steps_per_sec_{0.0};
  std::atomic<std::uint64_t> current_rss_kb_{0};
  std::atomic<std::uint64_t> peak_rss_kb_{0};
};

/// Current resident set size of this process in KiB (/proc/self/statm),
/// 0 when unavailable. Observational only, like current_peak_rss_kb().
std::uint64_t current_rss_kb();

}  // namespace mmog::obs
