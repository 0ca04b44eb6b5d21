#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <sstream>
#include <vector>

#include "core/metrics.hpp"
#include "dc/reservation.hpp"
#include "fault/resilience.hpp"
#include "predict/ar.hpp"
#include "predict/holt_winters.hpp"
#include "predict/neural.hpp"
#include "predict/simple.hpp"
#include "util/timeseries.hpp"

// The serialization contract behind checkpoint/restore: for every stateful
// component, save -> load into a fresh instance -> save must be
// bit-identical, and the restored instance must behave bit-identically
// from that point on. EXPECT_EQ on doubles here is deliberate: byte-level
// replay is exactly the guarantee under test.

namespace mmog {
namespace {

std::vector<double> wave(std::size_t n) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    const double phase = 2.0 * std::numbers::pi * static_cast<double>(t) / 31.0;
    out.push_back(700.0 + 450.0 * std::sin(phase) +
                  17.0 * std::cos(3.0 * phase));
  }
  return out;
}

/// Feeds `warmup` samples, snapshots, loads into a fresh instance, then
/// verifies (a) save->load->save byte-identity and (b) both instances stay
/// in lockstep over `extra` further samples.
void expect_roundtrip(predict::Predictor& original, std::size_t warmup = 40,
                      std::size_t extra = 25) {
  const auto series = wave(warmup + extra);
  for (std::size_t t = 0; t < warmup; ++t) original.observe(series[t]);

  std::vector<double> saved;
  original.save_state(saved);
  auto restored = original.make_fresh();
  restored->load_state(saved);

  std::vector<double> saved_again;
  restored->save_state(saved_again);
  ASSERT_EQ(saved.size(), saved_again.size()) << original.name();
  for (std::size_t i = 0; i < saved.size(); ++i) {
    EXPECT_EQ(saved[i], saved_again[i])
        << original.name() << " state[" << i << "]";
  }

  for (std::size_t t = warmup; t < warmup + extra; ++t) {
    EXPECT_EQ(original.predict(), restored->predict())
        << original.name() << " diverged at step " << t;
    original.observe(series[t]);
    restored->observe(series[t]);
  }
  EXPECT_EQ(original.predict(), restored->predict()) << original.name();
}

TEST(PredictorRoundtrip, LastValue) {
  predict::LastValuePredictor p;
  expect_roundtrip(p);
}

TEST(PredictorRoundtrip, Average) {
  predict::AveragePredictor p;
  expect_roundtrip(p);
}

TEST(PredictorRoundtrip, MovingAverage) {
  predict::MovingAveragePredictor p(5);
  expect_roundtrip(p);
}

TEST(PredictorRoundtrip, MovingAveragePartialWindow) {
  // Fewer observations than the window: the payload must carry the short
  // history, not a zero-padded window.
  predict::MovingAveragePredictor p(7);
  expect_roundtrip(p, 3, 20);
}

TEST(PredictorRoundtrip, SlidingWindowMedian) {
  predict::SlidingWindowMedianPredictor p(5);
  expect_roundtrip(p);
}

TEST(PredictorRoundtrip, ExponentialSmoothing) {
  predict::ExponentialSmoothingPredictor p(0.5);
  expect_roundtrip(p);
}

TEST(PredictorRoundtrip, ExponentialSmoothingUnprimed) {
  predict::ExponentialSmoothingPredictor p(0.3);
  expect_roundtrip(p, 0, 10);
}

TEST(PredictorRoundtrip, Holt) {
  predict::HoltPredictor p;
  expect_roundtrip(p);
}

TEST(PredictorRoundtrip, HoltWinters) {
  predict::HoltWintersPredictor p;
  expect_roundtrip(p);
}

TEST(PredictorRoundtrip, HoltWintersMidFirstSeason) {
  // Mid first-season snapshot: the payload carries the partial first-season
  // buffer and no seasonal components yet.
  predict::HoltWintersPredictor p;
  expect_roundtrip(p, 10, 40);
}

TEST(PredictorRoundtrip, Drift) {
  predict::DriftPredictor p;
  expect_roundtrip(p);
}

TEST(PredictorRoundtrip, Ar) {
  const auto series = wave(200);
  std::vector<util::TimeSeries> histories;
  histories.emplace_back(util::kSampleStepSeconds, series);
  auto model = std::make_shared<const predict::ArModel>(
      predict::ArModel::fit(4, histories));
  predict::ArPredictor p(model);
  expect_roundtrip(p);
}

TEST(PredictorRoundtrip, ArWrappedRing) {
  // Enough observations that the ring buffer has wrapped: restoring
  // re-pushes oldest-first, normalizing the split, and predictions must
  // not care.
  const auto series = wave(200);
  std::vector<util::TimeSeries> histories;
  histories.emplace_back(util::kSampleStepSeconds, series);
  auto model = std::make_shared<const predict::ArModel>(
      predict::ArModel::fit(3, histories));
  predict::ArPredictor p(model);
  expect_roundtrip(p, 100, 40);
}

TEST(PredictorRoundtrip, Neural) {
  const auto series = wave(300);
  util::TimeSeries history(util::kSampleStepSeconds);
  for (const double v : series) history.push_back(v);
  predict::NeuralConfig cfg;
  cfg.train.max_eras = 10;
  auto model = std::make_shared<const predict::NeuralModel>(
      predict::NeuralModel::fit(cfg, history));
  predict::NeuralPredictor p(model);
  expect_roundtrip(p);
}

TEST(PredictorRoundtrip, RejectsOversizedPayload) {
  predict::MovingAveragePredictor p(3);
  // n = 5 claims more values than the window holds.
  EXPECT_THROW(p.load_state(std::vector<double>{5, 1, 2, 3, 4, 5}),
               std::invalid_argument);
  predict::LastValuePredictor last;
  EXPECT_THROW(last.load_state(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(PredictorRoundtrip, RejectsCountsNoSizeTCanHold) {
  // Every count slot of a valid payload, and the bare payloads {-1}, {NaN}
  // and {1e300}, is refused before any cast to an integer.
  const auto series = wave(200);
  std::vector<util::TimeSeries> histories;
  histories.emplace_back(util::kSampleStepSeconds, series);
  const auto ar = std::make_shared<const predict::ArModel>(
      predict::ArModel::fit(3, histories));
  struct Case {
    std::unique_ptr<predict::Predictor> predictor;
    std::vector<std::size_t> count_slots;
  };
  std::vector<Case> cases;
  cases.push_back({std::make_unique<predict::ArPredictor>(ar), {0}});
  cases.push_back({std::make_unique<predict::AveragePredictor>(), {1}});
  cases.push_back({std::make_unique<predict::MovingAveragePredictor>(5), {1}});
  cases.push_back(
      {std::make_unique<predict::SlidingWindowMedianPredictor>(5), {0}});
  cases.push_back({std::make_unique<predict::HoltPredictor>(), {2}});
  // 10 samples into a 24-sample season: 10 first-season values, then an
  // empty seasonal block whose count sits at 5 + 10.
  cases.push_back(
      {std::make_unique<predict::HoltWintersPredictor>(24), {2, 4, 15}});
  cases.push_back({std::make_unique<predict::DriftPredictor>(), {2}});
  for (auto& c : cases) {
    auto& p = *c.predictor;
    for (std::size_t t = 0; t < 10; ++t) p.observe(series[t]);
    std::vector<double> saved;
    p.save_state(saved);
    ASSERT_NO_THROW(p.make_fresh()->load_state(saved)) << p.name();
    for (const double bad : {-1.0, std::nan(""), 1e300}) {
      EXPECT_THROW(p.make_fresh()->load_state(std::vector<double>{bad}),
                   std::invalid_argument)
          << p.name() << " {" << bad << "}";
      for (const std::size_t slot : c.count_slots) {
        auto payload = saved;
        ASSERT_LT(slot, payload.size()) << p.name();
        payload[slot] = bad;
        EXPECT_THROW(p.make_fresh()->load_state(payload),
                     std::invalid_argument)
            << p.name() << " slot " << slot << " = " << bad;
      }
    }
  }
}

TEST(NeuralModelSerialization, SaveLoadSaveByteIdentical) {
  const auto series = wave(300);
  util::TimeSeries history(util::kSampleStepSeconds);
  for (const double v : series) history.push_back(v);
  predict::NeuralConfig cfg;
  cfg.train.max_eras = 10;
  const auto model = predict::NeuralModel::fit(cfg, history);

  std::ostringstream first;
  model.save(first);
  std::istringstream in(first.str());
  const auto reloaded = predict::NeuralModel::load(in);
  std::ostringstream second;
  reloaded.save(second);
  EXPECT_EQ(first.str(), second.str());

  // And the reloaded model predicts bit-identically.
  const std::vector<double> recent(series.end() - 10, series.end());
  EXPECT_EQ(model.predict_next(recent), reloaded.predict_next(recent));
}

TEST(NeuralModelSerialization, RejectsGarbage) {
  std::istringstream bad("not-a-model\n1 2 3\n");
  EXPECT_THROW(predict::NeuralModel::load(bad), std::runtime_error);
}

TEST(BackoffTrackerRoundtrip, EntriesRestoreExactly) {
  fault::BackoffTracker a(/*base_steps=*/2, /*max_steps=*/64);
  a.record_failure(3, /*step=*/10);
  a.record_failure(3, /*step=*/12);
  a.record_failure(7, /*step=*/12);
  a.record_failure(3, /*step=*/20);
  const auto entries = a.entries();
  ASSERT_EQ(entries.size(), 2u);

  fault::BackoffTracker b(2, 64);
  b.restore_entries(entries);
  const auto entries_b = b.entries();
  ASSERT_EQ(entries.size(), entries_b.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].dc, entries_b[i].dc);
    EXPECT_EQ(entries[i].failures, entries_b[i].failures);
    EXPECT_EQ(entries[i].until, entries_b[i].until);
  }
  // Identical behavior going forward: exclusion windows and the doubling
  // schedule both continue from the restored counts.
  for (std::size_t step = 0; step < 80; ++step) {
    EXPECT_EQ(a.excluded(3, step), b.excluded(3, step)) << step;
    EXPECT_EQ(a.excluded(7, step), b.excluded(7, step)) << step;
  }
  a.record_failure(3, 30);
  b.record_failure(3, 30);
  for (std::size_t step = 0; step < 200; ++step) {
    EXPECT_EQ(a.excluded(3, step), b.excluded(3, step)) << step;
  }
}

TEST(SlaTrackerRoundtrip, StateRestoreExactly) {
  core::SlaTracker a;
  const bool pattern[] = {false, true,  true, false, false, true, false,
                          true,  true,  true, false, false, true, false,
                          false, false, true, true,  false, true};
  for (const bool breached : pattern) a.observe(breached, false);

  core::SlaTracker b;
  b.restore(a.state());

  // Same stats now and after any further shared observations.
  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_EQ(sa.steps, sb.steps);
  EXPECT_EQ(sa.downtime_steps, sb.downtime_steps);
  EXPECT_EQ(sa.breach_episodes, sb.breach_episodes);
  EXPECT_EQ(sa.recoveries, sb.recoveries);
  EXPECT_EQ(sa.longest_breach_steps, sb.longest_breach_steps);
  EXPECT_EQ(sa.mean_time_to_recover_steps, sb.mean_time_to_recover_steps);
  EXPECT_EQ(sa.max_time_to_recover_steps, sb.max_time_to_recover_steps);
  for (const bool breached : {true, true, false, true, false, false}) {
    a.observe(breached, breached);
    b.observe(breached, breached);
    EXPECT_EQ(a.stats().downtime_steps, b.stats().downtime_steps);
    EXPECT_EQ(a.stats().mean_time_to_recover_steps,
              b.stats().mean_time_to_recover_steps);
  }
}

TEST(ReservationCalendarRoundtrip, BookingsRestoreExactly) {
  util::ResourceVector cap;
  cap.v = {16.0, 64.0, 100.0, 100.0};
  dc::ReservationCalendar a(cap, /*horizon_steps=*/50);
  util::ResourceVector amount;
  amount.v = {2.0, 8.0, 10.0, 10.0};
  const auto id0 = a.book(amount, 0, 10);
  const auto id1 = a.book(amount, 5, 25);
  const auto id2 = a.book(amount, 20, 50);
  ASSERT_TRUE(id0 && id1 && id2);
  ASSERT_TRUE(a.cancel(*id1));

  auto b = dc::ReservationCalendar::restore(cap, a.horizon(), a.bookings());

  // Same bookings (ids, intervals, active flags) and same per-step free
  // capacity — cancelled bookings keep their slots so ids stay stable.
  const auto ba = a.bookings();
  const auto bb = b.bookings();
  ASSERT_EQ(ba.size(), bb.size());
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].from, bb[i].from);
    EXPECT_EQ(ba[i].to, bb[i].to);
    EXPECT_EQ(ba[i].active, bb[i].active);
    for (std::size_t r = 0; r < util::kResourceKinds; ++r) {
      EXPECT_EQ(ba[i].amount.v[r], bb[i].amount.v[r]);
    }
  }
  for (std::size_t step = 0; step < a.horizon(); ++step) {
    const auto fa = a.available_at(step);
    const auto fb = b.available_at(step);
    for (std::size_t r = 0; r < util::kResourceKinds; ++r) {
      EXPECT_EQ(fa.v[r], fb.v[r]) << "step " << step;
    }
  }
  // Future operations agree too: cancelling a restored booking frees the
  // same capacity.
  EXPECT_TRUE(a.cancel(*id2));
  EXPECT_TRUE(b.cancel(*id2));
  EXPECT_EQ(a.active_bookings(), b.active_bookings());
  EXPECT_EQ(a.earliest_fit(amount, 0, 30), b.earliest_fit(amount, 0, 30));
}

TEST(ReservationCalendarRoundtrip, RejectsBookingOutsideHorizon) {
  util::ResourceVector cap;
  cap.v = {4.0, 4.0, 4.0, 4.0};
  dc::ReservationCalendar::BookingView view;
  view.amount = cap;
  view.from = 0;
  view.to = 20;  // past the 10-step horizon
  view.active = true;
  EXPECT_THROW(dc::ReservationCalendar::restore(cap, 10, {view}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mmog
