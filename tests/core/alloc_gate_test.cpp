// The allocs/step gate. Heap allocations are a deterministic,
// machine-independent property of the code and the workload: two runs of
// the same build count the same allocations in every phase. Each cell
// below is a 240-step provisioning run of the paper's world scaled to 1k
// or 10k server groups, at 1 or 4 predict threads, with the allocation
// profiler attached; one more runs the paper-sized world (120 groups)
// with the neural predictor trained on its first day. The test fails when
// any pinned count drifts by more than 25% in either direction. A large
// drop fails too: it usually means the workload changed, not that the code
// got leaner. To re-pin, copy the measured rows the failure prints and say
// why in CHANGES.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.hpp"
#include "obs/recorder.hpp"
#include "predict/neural.hpp"
#include "predict/simple.hpp"
#include "trace/runescape_model.hpp"
#include "util/timeseries.hpp"

namespace mmog::core {
namespace {

constexpr double kTolerancePct = 25.0;
constexpr std::size_t kSteps = 240;

/// What the profiler reports for one run: per phase, the allocations
/// summed over all steps ("step" wraps each whole step), plus the whole
/// step's heap bytes per step.
struct Profile {
  double step_bytes_per_step = 0.0;
  std::map<std::string, double> allocs;
};

enum class Model { kLastValue, kNeural };

struct Cell {
  const char* label;
  std::size_t groups;
  std::size_t threads;
  Profile pinned;
  Model model = Model::kLastValue;
};

void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.label; }

// gcc 12 Release, measured after the warm-up run (see warm_up()).
const Cell kCells[] = {
    {"g1000/t1", 1000, 1,
     {494.73, {{"account", 20}, {"books", 31}, {"match", 28},
               {"match_commit", 7}, {"pad", 1}, {"predict", 9},
               {"step", 171}}}},
    {"g1000/t4", 1000, 4,
     {511.43, {{"account", 20}, {"books", 31}, {"match", 28},
               {"match_commit", 7}, {"pad", 1}, {"predict", 48},
               {"step", 210}}}},
    {"g10000/t1", 10000, 1,
     {495.33, {{"account", 20}, {"books", 33}, {"match", 28},
               {"match_commit", 7}, {"pad", 1}, {"predict", 9},
               {"step", 173}}}},
    {"g10000/t4", 10000, 4,
     {512.03, {{"account", 20}, {"books", 33}, {"match", 28},
               {"match_commit", 7}, {"pad", 1}, {"predict", 48},
               {"step", 212}}}},
    {"g120/t1/neural", 120, 1,
     {490.64, {{"account", 20}, {"books", 20}, {"match", 26},
               {"match_commit", 5}, {"pad", 1}, {"predict", 9},
               {"step", 157}}},
     Model::kNeural},
};

/// One quadratic-load game over the paper world scaled to `groups`, with
/// the Table III machine counts scaled to match (at 10k groups the stock
/// ecosystem would only measure allocation starvation) and a profiling
/// Recorder. The neural model is fitted as mmog_simulate fits it (40 eras,
/// patience 8, six groups) on the first day of a trace one day long, whose
/// first `steps` steps are then run.
Profile profile_run(std::size_t groups, std::size_t threads,
                    std::size_t steps, Model model = Model::kLastValue) {
  trace::RuneScapeModelConfig tcfg =
      trace::RuneScapeModelConfig::paper_default();
  tcfg.scale_to_groups(groups);
  const std::size_t day = util::samples_per_days(1);
  tcfg.steps = model == Model::kNeural ? std::max(steps, day) : steps;
  tcfg.seed = 2008;

  SimulationConfig cfg;
  cfg.datacenters = dc::paper_ecosystem();
  const double factor = static_cast<double>(tcfg.total_groups()) / 120.0;
  if (factor > 1.0) {
    for (auto& d : cfg.datacenters) {
      d.machines = static_cast<std::size_t>(
          std::ceil(static_cast<double>(d.machines) * factor));
    }
  }
  GameSpec game;
  game.name = "bench";
  game.load = LoadModel{UpdateModel::kQuadratic, 2000.0};
  game.latency_tolerance = dc::DistanceClass::kVeryFar;
  game.workload = trace::generate(tcfg);
  cfg.games.push_back(std::move(game));
  cfg.threads = threads;
  cfg.steps = steps;
  if (model == Model::kNeural) {
    predict::NeuralConfig ncfg;
    ncfg.train.max_eras = 40;
    ncfg.train.patience = 8;
    cfg.predictor = neural_factory_from_workload(cfg.games[0].workload, day,
                                                 ncfg, 6);
  } else {
    cfg.predictor = [] {
      return std::make_unique<predict::LastValuePredictor>();
    };
  }

  obs::Recorder recorder(obs::TraceLevel::kOff);
  recorder.enable_profiler();
  cfg.recorder = &recorder;
  simulate(cfg);

  const obs::Snapshot snap = recorder.snapshot();
  constexpr std::string_view kPrefix = "phase.";
  constexpr std::string_view kSuffix = "_allocs";
  Profile profile;
  for (const auto& [name, hist] : snap.histograms) {
    if (name.starts_with(kPrefix) && name.ends_with(kSuffix)) {
      profile.allocs[name.substr(kPrefix.size(), name.size() -
                                                     kPrefix.size() -
                                                     kSuffix.size())] =
          hist.sum;
    }
  }
  if (const auto it = snap.histograms.find("phase.step_alloc_bytes");
      it != snap.histograms.end()) {
    profile.step_bytes_per_step = it->second.mean();
  }
  return profile;
}

/// The first simulate() in a process pays one-time allocations that later
/// runs do not. Today they are the 11 that build the static histogram
/// bucket tables on first use: 6 for obs::duration_buckets_us(), first
/// used inside predict, and 5 for obs::count_buckets(). One unmeasured run
/// first makes every cell read the same counts whether it runs alone,
/// after the other cells, or after the whole test binary.
void warm_up() {
  static const bool done = [] {
    profile_run(1000, 1, 24);
    return true;
  }();
  (void)done;
}

/// The measured profile as a kCells row, ready to paste over the pin.
std::string as_row(const Cell& cell, const Profile& got) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "{\"%s\", %zu, %zu,\n {%.2f, {", cell.label,
                cell.groups, cell.threads, got.step_bytes_per_step);
  std::string row = buf;
  const char* sep = "";
  for (const auto& [phase, allocs] : got.allocs) {
    std::snprintf(buf, sizeof buf, "%s{\"%s\", %.0f}", sep, phase.c_str(),
                  allocs);
    row += buf;
    sep = ", ";
  }
  return row + (cell.model == Model::kNeural ? "}}, Model::kNeural},"
                                              : "}}},");
}

class AllocGateTest : public ::testing::TestWithParam<Cell> {};

TEST_P(AllocGateTest, AllocationsStayWithinToleranceOfPins) {
  const Cell& cell = GetParam();
  warm_up();
  const Profile got =
      profile_run(cell.groups, cell.threads, kSteps, cell.model);

  std::vector<std::string> drifts;
  char buf[160];
  const auto check = [&](const std::string& what, double value,
                         double pinned) {
    // A zero pin gives inf (fails) once its count moves, NaN (passes) while
    // it stays 0.
    const double pct = (value - pinned) / pinned * 100.0;
    if (std::fabs(pct) > kTolerancePct) {
      std::snprintf(buf, sizeof buf, "%s %s: %.2f vs pinned %.2f (%+.1f%%)",
                    cell.label, what.c_str(), value, pinned, pct);
      drifts.emplace_back(buf);
    }
  };
  check("step bytes/step", got.step_bytes_per_step,
        cell.pinned.step_bytes_per_step);
  for (const auto& [phase, pinned] : cell.pinned.allocs) {
    const auto it = got.allocs.find(phase);
    if (it == got.allocs.end()) {
      drifts.push_back(std::string(cell.label) + " " + phase +
                       " allocs: phase vanished");
    } else {
      check(phase + " allocs", it->second, pinned);
    }
  }
  for (const auto& [phase, allocs] : got.allocs) {
    if (!cell.pinned.allocs.contains(phase)) {
      drifts.push_back(std::string(cell.label) + " " + phase +
                       " allocs: new phase, not pinned");
    }
  }

  std::string message;
  for (const auto& d : drifts) message += d + "\n";
  EXPECT_TRUE(drifts.empty())
      << message << "beyond +/-" << kTolerancePct
      << "%. Measured profile (paste over the kCells row to re-pin):\n"
      << as_row(cell, got);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, AllocGateTest, ::testing::ValuesIn(kCells),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string name = info.param.label;
      for (char& c : name) {
        if (c == '/') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace mmog::core
