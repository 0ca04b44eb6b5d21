// Everything a run produces, pinned as one digest per configuration: the
// per-step history, per-game and per-DC results, the decision audit trail
// and every counter. The configurations together drive every decision path
// of the provisioning loop (each offer rejection, the grant flap, shedding,
// same-step re-placement, every audit record kind and every eviction
// cause), and that coverage is asserted too, so a fixture edit cannot
// quietly stop exercising a path the digests are meant to guard.

#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "support/run_digest.hpp"

namespace mmog::core {
namespace {

enum class Variant {
  kStatic,
  kDynamic,
  kProvisioningDelay,
  kPrioritized,
  kFaulted,
  kFaultedStopped,
};

SimulationConfig config_for(Variant variant, std::size_t threads) {
  switch (variant) {
    case Variant::kStatic: {
      auto cfg = test::digest_base_config(threads);
      cfg.mode = AllocationMode::kStatic;
      return cfg;
    }
    case Variant::kDynamic:
      return test::digest_base_config(threads);
    case Variant::kProvisioningDelay: {
      auto cfg = test::digest_base_config(threads);
      cfg.provisioning_delay_steps = 3;
      return cfg;
    }
    case Variant::kPrioritized: {
      auto cfg = test::digest_base_config(threads);
      cfg.prioritize_by_interaction = true;
      return cfg;
    }
    case Variant::kFaulted:
    case Variant::kFaultedStopped:
      return test::digest_faulted_config(threads);
  }
  return {};
}

struct Run {
  std::uint64_t digest = 0;
  SimulationResult result;
  std::map<std::string, double> counters;
  std::vector<obs::AuditRecord> records;
};

/// One run with an auditing recorder. The stopped variant raises the stop
/// flag from the checkpoint sink at step 100, so the loop ends after the
/// next step.
Run run(Variant variant, std::size_t threads) {
  auto cfg = config_for(variant, threads);
  obs::Recorder rec(obs::TraceLevel::kOff);
  rec.enable_audit();
  cfg.recorder = &rec;
  std::atomic<bool> stop{false};
  if (variant == Variant::kFaultedStopped) {
    cfg.stop_flag = &stop;
    cfg.checkpoint_every_steps = 100;
    cfg.checkpoint_sink = [&stop](const CheckpointState&) {
      stop.store(true, std::memory_order_relaxed);
    };
  }
  Run out;
  out.result = simulate(cfg);
  out.digest = test::run_digest(out.result, &rec);
  out.counters = rec.snapshot().counters;
  out.records = rec.audit()->records();
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

void expect_digest(Variant variant, std::uint64_t pinned) {
  for (const std::size_t threads : {1u, 4u}) {
    const auto got = run(variant, threads).digest;
    EXPECT_EQ(hex(got), hex(pinned)) << "threads=" << threads;
  }
}

TEST(RunDigestTest, Static) {
  expect_digest(Variant::kStatic, 0xcd3cc1ac24ed8817);
}

TEST(RunDigestTest, Dynamic) {
  expect_digest(Variant::kDynamic, 0x74eec5e160238024);
}

TEST(RunDigestTest, ProvisioningDelay) {
  expect_digest(Variant::kProvisioningDelay, 0x862a5e5aad0c7db5);
}

TEST(RunDigestTest, PrioritizeByInteraction) {
  expect_digest(Variant::kPrioritized, 0x27ced8218ac8f73c);
}

TEST(RunDigestTest, FaultsWithResilience) {
  expect_digest(Variant::kFaulted, 0x51cd36b637454140);
}

TEST(RunDigestTest, FaultsWithResilienceStoppedEarly) {
  expect_digest(Variant::kFaultedStopped, 0xcc200300a2f979a4);
  const auto stopped = run(Variant::kFaultedStopped, 1).result;
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_EQ(stopped.steps, 101u);
}

TEST(RunDigestTest, ConfigurationsCoverEveryDecisionPath) {
  std::map<std::string, double> counters;
  std::set<obs::AuditKind> kinds;
  std::set<std::string> causes;
  for (const auto variant :
       {Variant::kStatic, Variant::kDynamic, Variant::kProvisioningDelay,
        Variant::kPrioritized, Variant::kFaulted, Variant::kFaultedStopped}) {
    const auto out = run(variant, 1);
    for (const auto& [name, value] : out.counters) counters[name] += value;
    for (const auto& r : out.records) {
      kinds.insert(r.kind);
      if (r.kind == obs::AuditKind::kForceRelease) causes.insert(r.cause);
    }
  }
  for (const char* name :
       {"offer.rejected.outage", "offer.rejected.latency_degraded",
        "offer.rejected.backoff", "offer.rejected.bulk",
        "offer.rejected.amount", "alloc.grant_failed.transient",
        "resilience.shed", "resilience.replaced"}) {
    EXPECT_GT(counters[name], 0.0) << name;
  }
  for (const auto kind :
       {obs::AuditKind::kMatch, obs::AuditKind::kReplace,
        obs::AuditKind::kStatic, obs::AuditKind::kForceRelease}) {
    EXPECT_TRUE(kinds.contains(kind)) << obs::audit_kind_name(kind);
  }
  for (const char* cause : {"outage", "latency", "capacity", "shed"}) {
    EXPECT_TRUE(causes.contains(cause)) << cause;
  }
}

}  // namespace
}  // namespace mmog::core
