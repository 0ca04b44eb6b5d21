#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "core/run_report.hpp"
#include "core/simulation.hpp"
#include "fault/parse.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "predict/simple.hpp"
#include "support/run_digest.hpp"

// The checkpoint/restore invariant end to end, in process: restoring at any
// step k and running to the end yields a RunReport and a decision-audit
// trail identical to the uninterrupted run — at any thread count, and with
// the snapshot round-tripped through the serialized format (so what is
// proven is the on-disk artifact, not the in-memory struct).

namespace mmog::core {
namespace {

constexpr std::size_t kSteps = 240;

/// Two games, several groups, one fault process, resilience on: every
/// checkpointed section (backoff entries, per-game SLA, fault schedule,
/// audit causes) is exercised, not just the happy path.
SimulationConfig test_config(std::size_t threads) {
  SimulationConfig cfg;
  dc::DataCenterSpec d;
  d.name = "NL";
  d.country = "Netherlands";
  d.continent = "Europe";
  d.location = {52.37, 4.90};
  d.machines = 30;
  d.policy = dc::HostingPolicy::preset(1);
  dc::DataCenterSpec d2 = d;
  d2.name = "DE";
  d2.country = "Germany";
  d2.location = {50.11, 8.68};
  d2.machines = 20;
  cfg.datacenters = {d, d2};
  GameSpec game;
  game.name = "TestGame";
  game.load = LoadModel{UpdateModel::kQuadratic, 2000.0};
  game.latency_tolerance = dc::DistanceClass::kVeryFar;
  game.workload = test::sine_workload(4, kSteps);
  cfg.games.push_back(std::move(game));
  GameSpec second;
  second.name = "SecondGame";
  second.load = LoadModel{UpdateModel::kQuadratic, 2000.0};
  second.latency_tolerance = dc::DistanceClass::kVeryFar;
  second.workload = test::sine_workload(3, kSteps);
  cfg.games.push_back(std::move(second));
  cfg.predictor = [] {
    return std::make_unique<predict::LastValuePredictor>();
  };
  cfg.faults = fault::parse_fault_specs("outage:dc=1,mtbf=8h,mttr=1h,seed=9");
  cfg.resilience.enabled = true;
  cfg.threads = threads;
  return cfg;
}

struct RunOutput {
  obs::RunReport report;
  std::string audit_jsonl;
};

RunOutput run_to_end(SimulationConfig cfg,
                     const CheckpointState* restore_from = nullptr,
                     std::vector<CheckpointState>* captured = nullptr,
                     std::size_t checkpoint_every = 0) {
  obs::Recorder rec(obs::TraceLevel::kOff);
  rec.enable_audit();
  cfg.recorder = &rec;
  cfg.restore_from = restore_from;
  if (captured != nullptr) {
    cfg.checkpoint_every_steps = checkpoint_every;
    cfg.checkpoint_sink = [captured](const CheckpointState& st) {
      captured->push_back(st);
    };
  }
  const auto result = simulate(cfg);
  return {make_run_report(cfg, result, "test", "run", 0.0),
          rec.audit()->to_jsonl()};
}

/// Round-trips a captured snapshot through the serialized format, as a real
/// restore would read it off disk.
CheckpointState through_format(const CheckpointState& st) {
  ckpt::CheckpointFile file;
  file.state = st;
  return ckpt::parse_jsonl(ckpt::to_jsonl(file)).state;
}

std::string notes_of(const obs::DiffResult& diff) {
  std::string joined;
  for (const auto& note : diff.notes) joined += note + '\n';
  return joined;
}

class RestoreIdentityTest : public testing::Test {
 protected:
  // One reference run (threads=1), capturing a checkpoint every 20 steps,
  // shared by all restore points.
  static void SetUpTestSuite() {
    captured_ = new std::vector<CheckpointState>();
    reference_ = new RunOutput(
        run_to_end(test_config(1), nullptr, captured_, 20));
  }
  static void TearDownTestSuite() {
    delete captured_;
    delete reference_;
    captured_ = nullptr;
    reference_ = nullptr;
  }

  static const CheckpointState& snapshot_at(std::size_t step) {
    for (const auto& st : *captured_) {
      if (st.next_step == step) return st;
    }
    ADD_FAILURE() << "no checkpoint captured at step " << step;
    return captured_->front();
  }

  static void expect_identical_from(std::size_t step, std::size_t threads) {
    const auto restored = through_format(snapshot_at(step));
    const auto resumed = run_to_end(test_config(threads), &restored);
    const auto report_diff =
        obs::diff_reports(reference_->report, resumed.report);
    EXPECT_FALSE(report_diff.regression())
        << "k=" << step << " threads=" << threads << "\n"
        << notes_of(report_diff);
    EXPECT_EQ(reference_->audit_jsonl, resumed.audit_jsonl)
        << "k=" << step << " threads=" << threads;
  }

  static std::vector<CheckpointState>* captured_;
  static RunOutput* reference_;
};

std::vector<CheckpointState>* RestoreIdentityTest::captured_ = nullptr;
RunOutput* RestoreIdentityTest::reference_ = nullptr;

TEST_F(RestoreIdentityTest, CaptureIsObservational) {
  // A run with the checkpoint sink enabled must be byte-identical to one
  // without it.
  const auto plain = run_to_end(test_config(1));
  const auto diff = obs::diff_reports(reference_->report, plain.report);
  EXPECT_FALSE(diff.regression()) << notes_of(diff);
  EXPECT_EQ(reference_->audit_jsonl, plain.audit_jsonl);
  // And checkpoints were actually captured where expected.
  ASSERT_FALSE(captured_->empty());
  EXPECT_EQ(captured_->front().next_step, 20u);
  EXPECT_EQ(captured_->back().next_step, kSteps);
}

TEST_F(RestoreIdentityTest, EarlyRestoreSingleThread) {
  expect_identical_from(20, 1);
}

TEST_F(RestoreIdentityTest, EarlyRestoreFourThreads) {
  expect_identical_from(20, 4);
}

TEST_F(RestoreIdentityTest, MidRestoreSingleThread) {
  expect_identical_from(120, 1);
}

TEST_F(RestoreIdentityTest, MidRestoreFourThreads) {
  expect_identical_from(120, 4);
}

TEST_F(RestoreIdentityTest, LateRestoreSingleThread) {
  expect_identical_from(220, 1);
}

TEST_F(RestoreIdentityTest, LateRestoreFourThreads) {
  expect_identical_from(220, 4);
}

TEST_F(RestoreIdentityTest, RefusesDivergentConfiguration) {
  // The restore guard: resuming under a configuration that would expand a
  // different fault schedule (or different geometry) must throw, not
  // silently diverge.
  const auto restored = through_format(snapshot_at(120));

  auto other_faults = test_config(1);
  other_faults.faults =
      fault::parse_fault_specs("outage:dc=1,mtbf=8h,mttr=1h,seed=10");
  EXPECT_THROW(run_to_end(std::move(other_faults), &restored),
               std::invalid_argument);

  auto fewer_centers = test_config(1);
  fewer_centers.datacenters.pop_back();
  EXPECT_THROW(run_to_end(std::move(fewer_centers), &restored),
               std::invalid_argument);
}

TEST_F(RestoreIdentityTest, StopFlagEmitsFinalCheckpointAndInterrupts) {
  // Cooperative stop: with the flag already set, the loop completes exactly
  // one step, hands a final checkpoint to the sink, and reports
  // `interrupted`; restoring that checkpoint and finishing matches the
  // uninterrupted reference.
  auto cfg = test_config(1);
  std::atomic<bool> stop{true};
  std::vector<CheckpointState> final_snaps;
  obs::Recorder rec(obs::TraceLevel::kOff);
  rec.enable_audit();
  cfg.recorder = &rec;
  cfg.stop_flag = &stop;
  cfg.checkpoint_sink = [&final_snaps](const CheckpointState& st) {
    final_snaps.push_back(st);
  };
  const auto result = simulate(cfg);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.steps, 1u);
  ASSERT_EQ(final_snaps.size(), 1u);
  EXPECT_EQ(final_snaps[0].next_step, 1u);

  const auto restored = through_format(final_snaps[0]);
  const auto resumed = run_to_end(test_config(1), &restored);
  const auto diff = obs::diff_reports(reference_->report, resumed.report);
  EXPECT_FALSE(diff.regression()) << notes_of(diff);
  EXPECT_EQ(reference_->audit_jsonl, resumed.audit_jsonl);
}

TEST(RestoreDigestTest, EveryOutputSurvivesRestoreUnderAllFaultKinds) {
  // The digest covers what the report diff does not: the per-step history,
  // per-game metrics, per-DC usage by origin, the audit trail and every
  // counter. Restored at three points of the all-faults world, through the
  // serialized format and at one and four threads, the resumed run must
  // reproduce the uninterrupted run's digest.
  const auto digest_of = [](std::size_t threads,
                            const CheckpointState* restore_from,
                            std::vector<CheckpointState>* captured) {
    auto cfg = test::digest_faulted_config(threads);
    obs::Recorder rec(obs::TraceLevel::kOff);
    rec.enable_audit();
    cfg.recorder = &rec;
    cfg.restore_from = restore_from;
    if (captured != nullptr) {
      cfg.checkpoint_every_steps = 40;
      cfg.checkpoint_sink = [captured](const CheckpointState& st) {
        captured->push_back(st);
      };
    }
    return test::run_digest(simulate(cfg), &rec);
  };
  std::vector<CheckpointState> captured;
  const auto reference = digest_of(1, nullptr, &captured);
  for (const std::size_t step : {40u, 120u, 200u}) {
    const CheckpointState* snapshot = nullptr;
    for (const auto& st : captured) {
      if (st.next_step == step) snapshot = &st;
    }
    ASSERT_NE(snapshot, nullptr) << "no checkpoint at step " << step;
    const auto restored = through_format(*snapshot);
    for (const std::size_t threads : {1u, 4u}) {
      EXPECT_EQ(digest_of(threads, &restored, nullptr), reference)
          << "k=" << step << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace mmog::core
