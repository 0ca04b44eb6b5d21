#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/metrics.hpp"
#include "obs/report.hpp"

namespace perfbench {

/// The benchmark's workloads. Each is a closed-loop trace replay: one
/// simulate() pass after another on the calling thread, each 2-minute step
/// starting when the previous one ends.
enum class Workload {
  kFleet,  ///< 10,000 groups x 720 steps, last value, no recorder
  kPaper,  ///< paper world from CSV, 11,520 steps, neural, recorder
  kChaos,  ///< 1,000 groups x 2,880 steps, faults, resilience, checkpoints
};

/// "fleet" | "paper" | "chaos"; throws std::invalid_argument otherwise.
Workload parse_workload(std::string_view name);
std::string_view workload_name(Workload workload);

inline constexpr std::uint64_t kDefaultSeed = 2008;

struct RunOptions {
  Workload workload = Workload::kFleet;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;  ///< length of the timed window of passes
  bool trace = false;     ///< traced run: per-layer metrics instead
  /// Scratch directory for the paper CSV and checkpoint files; created and
  /// emptied by the caller.
  std::string work_dir;
  /// Directory holding "<workload>.json" pinned outcomes; empty = no pin.
  std::string pinned_dir;
  /// When set, the first pass's outcome is written here as a pin file.
  std::string pin_out;
  /// Traced run: where the spans are written at the end; empty = nowhere.
  std::string spans_out;
  /// Shrinks the workload (self-test smoke runs); 0 = the workload's own.
  std::size_t groups = 0;
  std::size_t steps = 0;
  /// Test hook: sees every pass's report before it is checked.
  std::function<void(std::size_t pass, mmog::obs::RunReport&)> tamper;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< simulate() passes and restores
  std::uint64_t failed = 0;     ///< of those, threw or failed a check
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  std::vector<std::string> notes;  ///< every failure, in order
};

/// Runs one workload: generates its inputs from the seed, sets up, replays
/// passes for `seconds`, restores from checkpoints, checks every output
/// and measures the metrics.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
