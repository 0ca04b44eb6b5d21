// Decision audit trail: record serialization, trail sequencing, JSONL
// round-trip, and the mmog_diff record comparison.

#include "obs/audit.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "obs/report.hpp"

namespace mmog::obs {
namespace {

AuditRecord sample_record() {
  AuditRecord record;
  record.step = 42;
  record.kind = AuditKind::kMatch;
  record.game = 1;
  record.region = "Europe";
  record.predicted_players = 1234.5;
  record.actual_players = 1200.0;
  record.margin_cpu = 2.5;
  record.demand_cpu = 10.0;
  record.held_cpu = 4.0;
  record.released_cpu = 0.5;
  record.requested_cpu = 6.5;
  record.granted_cpu = 6.5;
  record.unmet_cpu = 0.0;
  record.dc = 2;
  record.offers = {
      {1, OfferOutcome::kRejectedBackoff, 0.0, 45},
      {2, OfferOutcome::kGranted, 6.5, 0},
  };
  return record;
}

TEST(AuditTest, OutcomeAndKindNamesRoundTrip) {
  for (const auto outcome :
       {OfferOutcome::kGranted, OfferOutcome::kRejectedOutage,
        OfferOutcome::kRejectedLatencyDegraded, OfferOutcome::kRejectedBackoff,
        OfferOutcome::kRejectedBulk, OfferOutcome::kRejectedAmount,
        OfferOutcome::kGrantFlapped}) {
    EXPECT_EQ(offer_outcome_from_name(offer_outcome_name(outcome)), outcome);
  }
  for (const auto kind : {AuditKind::kMatch, AuditKind::kReplace,
                          AuditKind::kStatic, AuditKind::kForceRelease}) {
    EXPECT_EQ(audit_kind_from_name(audit_kind_name(kind)), kind);
  }
  EXPECT_THROW(offer_outcome_from_name("nope"), std::invalid_argument);
  EXPECT_THROW(audit_kind_from_name(""), std::invalid_argument);
}

// The JSONL line is the regression-diff currency: its key set, key order
// and number rendering must stay byte-stable across refactors.
TEST(AuditTest, GoldenJsonLine) {
  auto record = sample_record();
  record.seq = 3;
  EXPECT_EQ(
      audit_record_to_json(record),
      "{\"seq\":3,\"step\":42,\"kind\":\"match\",\"game\":1,"
      "\"region\":\"Europe\",\"predicted\":1234.5,\"actual\":1200,"
      "\"margin_cpu\":2.5,\"demand_cpu\":10,\"held_cpu\":4,"
      "\"released_cpu\":0.5,\"requested_cpu\":6.5,\"granted_cpu\":6.5,"
      "\"unmet_cpu\":0,\"dc\":2,\"cause\":\"\",\"alloc_id\":0,"
      "\"offers\":[{\"dc\":1,\"outcome\":\"rejected_backoff\",\"cpu\":0,"
      "\"until_step\":45},{\"dc\":2,\"outcome\":\"granted\",\"cpu\":6.5,"
      "\"until_step\":0}]}");
}

TEST(AuditTest, TrailAssignsConsecutiveSequenceNumbers) {
  AuditTrail trail;
  trail.append(sample_record());
  std::vector<AuditRecord> batch(3, sample_record());
  batch[1].kind = AuditKind::kForceRelease;
  batch[1].cause = "outage";
  trail.append_batch(batch);
  EXPECT_TRUE(batch.empty());  // moved out, ready for the next step
  ASSERT_EQ(trail.size(), 4u);
  const auto records = trail.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
  }
  EXPECT_EQ(records[2].cause, "outage");
}

TEST(AuditTest, JsonlRoundTripPreservesEveryField) {
  AuditTrail trail;
  trail.append(sample_record());
  auto evict = sample_record();
  evict.kind = AuditKind::kForceRelease;
  evict.cause = "latency";
  evict.alloc_id = 17;
  evict.dc = kAuditNoDc;
  evict.region = "quoted \"region\"\n";
  evict.offers.clear();
  trail.append(evict);

  std::stringstream ss;
  trail.write_jsonl(ss);
  const auto parsed = read_audit_jsonl(ss);
  EXPECT_EQ(parsed, trail.records());
}

TEST(AuditTest, ReadSkipsBlanksAndRejectsGarbage) {
  {
    std::string text = "\n";
    text += audit_record_to_json(sample_record());
    text += "\n\n";
    std::stringstream ss(text);
    EXPECT_EQ(read_audit_jsonl(ss).size(), 1u);
  }
  {
    std::stringstream ss("not json\n");
    EXPECT_THROW(read_audit_jsonl(ss), std::invalid_argument);
  }
}

TEST(AuditTest, ReadRejectsIntegersItCannotHold) {
  auto record = sample_record();
  record.dc = kAuditNoDc;
  const std::string line = audit_record_to_json(record);
  const auto read = [&](const std::string& from, const std::string& to) {
    auto text = line;
    const auto pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos) text.replace(pos, from.size(), to);
    std::stringstream ss(text);
    return read_audit_jsonl(ss);
  };
  // kAuditNoDc is the one negative value a record member holds.
  std::stringstream plain(line);
  EXPECT_EQ(read_audit_jsonl(plain).at(0).dc, kAuditNoDc);
  EXPECT_THROW(read("\"seq\":0", "\"seq\":-1"), std::invalid_argument);
  EXPECT_THROW(read("\"game\":1", "\"game\":-2"), std::invalid_argument);
  EXPECT_THROW(read("\"dc\":-1,", "\"dc\":1e300,"), std::invalid_argument);
  EXPECT_THROW(read("\"alloc_id\":0", "\"alloc_id\":0.5"),
               std::invalid_argument);
}

TEST(AuditTest, DiffAuditsFlagsCountAndContentDrift) {
  const std::vector<AuditRecord> a = {sample_record(), sample_record()};
  EXPECT_FALSE(diff_audits(a, a).regression());

  auto b = a;
  b[1].dc = 5;
  const auto diff = diff_audits(a, b);
  EXPECT_TRUE(diff.regression());
  ASSERT_EQ(diff.notes.size(), 1u);
  EXPECT_NE(diff.notes[0].find("record 1"), std::string::npos);

  b.push_back(sample_record());
  EXPECT_TRUE(diff_audits(a, b).regression());
}

TEST(AuditTest, DiffAuditsCapsTheNoteFlood) {
  std::vector<AuditRecord> a(10, sample_record());
  auto b = a;
  for (auto& record : b) record.granted_cpu += 1.0;
  const auto diff = diff_audits(a, b, 2);
  EXPECT_TRUE(diff.regression());
  ASSERT_EQ(diff.notes.size(), 3u);  // 2 records + "and N more"
  EXPECT_NE(diff.notes.back().find("8 more"), std::string::npos);
}

}  // namespace
}  // namespace mmog::obs
