#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "support/test_dir.hpp"
#include "util/rng.hpp"

// The on-disk checkpoint contract: byte-stable serialization, validation
// that rejects every way a file can be damaged (never a partial load), the
// atomic two-generation write, and path-annotated diffs.

namespace mmog {
namespace {

namespace fs = std::filesystem;

/// A small but fully populated checkpoint: every section non-empty, plus
/// the encoding edge cases (an allocation that never releases, counters and
/// extras with punctuation-heavy keys).
ckpt::CheckpointFile sample_file() {
  ckpt::CheckpointFile f;
  auto& st = f.state;
  st.next_step = 42;
  st.steps = 100;
  st.next_allocation_id = 7;
  st.unplaced_cpu_unit_steps = 3.25;
  st.total_cost = 1234.5625;

  fault::FaultEvent ev;
  ev.kind = fault::FaultKind::kOutage;
  ev.dc_index = 1;
  ev.from_step = 50;
  ev.to_step = 60;
  ev.severity = 1.0;
  st.fault_events.push_back(ev);

  core::LedgerCheckpoint ledger;
  ledger.in_use.v = {2.5, 8.0, 1.0, 1.0};
  ledger.capacity_fraction = 0.75;
  ledger.cpu_sum = 99.125;
  ledger.cpu_peak = 4.5;
  ledger.origin_sum["Europe"] = 77.25;
  st.ledgers.push_back(ledger);
  st.ledgers.push_back(core::LedgerCheckpoint{});

  core::UnitCheckpoint unit;
  unit.game_id = 0;
  unit.region = "Europe";
  unit.allocated.v = {2.5, 8.0, 1.0, 1.0};
  dc::Allocation alloc;
  alloc.id = 3;
  alloc.dc_index = 0;
  alloc.game_id = 0;
  alloc.group_id = 2;
  alloc.region_id = 1;
  alloc.amount.v = {2.5, 8.0, 1.0, 1.0};
  alloc.start_step = 40;
  alloc.usable_step = 40;
  alloc.earliest_release_step = 45;
  unit.allocations.push_back(alloc);
  dc::Allocation forever = alloc;
  forever.id = 4;
  forever.earliest_release_step = SIZE_MAX;  // static-mode "never release"
  unit.allocations.push_back(forever);
  unit.backoff.push_back({.dc = 1, .failures = 2, .until = 44});
  core::GroupCheckpoint group;
  group.predictor = "Last value";
  group.state = {512.0};
  group.last_prediction = 512.0;
  group.abs_error_ewma = 3.5;
  unit.groups.push_back(group);
  st.units.push_back(unit);

  core::StepMetrics m;
  m.allocated.v = {2.5, 8.0, 1.0, 1.0};
  m.used.v = {2.0, 6.0, 0.5, 0.5};
  m.shortfall.v = {0.0, 0.0, 0.0, 0.0};
  m.machines = 3;
  st.step_metrics.push_back(m);
  st.game_step_metrics.push_back({m});

  st.overall_sla.stats.steps = 42;
  st.overall_sla.stats.downtime_steps = 2;
  st.overall_sla.stats.breach_episodes = 1;
  st.overall_sla.stats.recoveries = 1;
  st.overall_sla.stats.longest_breach_steps = 2;
  st.overall_sla.streak = 0;
  st.overall_sla.recovered_steps_sum = 2.0;
  st.game_sla.push_back(st.overall_sla);

  st.counters["sim.steps"] = 42.0;
  st.counters["match.offers_rejected"] = 5.0;

  obs::AuditRecord rec;
  rec.seq = 0;
  rec.step = 0;
  rec.kind = obs::AuditKind::kMatch;
  rec.game = 0;
  rec.region = "Europe";
  rec.predicted_players = 512.0;
  rec.actual_players = 500.0;
  rec.demand_cpu = 2.5;
  rec.granted_cpu = 2.5;
  rec.dc = 0;
  rec.offers.push_back(
      {.dc = 0, .outcome = obs::OfferOutcome::kGranted, .cpu = 2.5});
  st.audit_records.push_back(rec);

  f.extras["mode"] = "dynamic";
  f.extras["in"] = "traces/demo.csv";
  return f;
}

/// Replaces the footer with a freshly computed one — how a hypothetical
/// *consistent* file with tampered content would look (exercises semantic
/// validation past the checksum).
std::string refooter(std::string body_without_footer) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "{\"footer\":\"fnv1a64\",\"hash\":\"%016llx\"}\n",
                static_cast<unsigned long long>(
                    ckpt::fnv1a64(body_without_footer)));
  return body_without_footer + buf;
}

std::string strip_footer(const std::string& text) {
  // Drop the final (footer) line; the text always ends in '\n'.
  const auto last_nl = text.rfind('\n', text.size() - 2);
  return text.substr(0, last_nl + 1);
}

std::string write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
  return path.string();
}

TEST(CheckpointFormat, SaveLoadSaveByteIdentical) {
  const auto file = sample_file();
  const auto text = ckpt::to_jsonl(file);
  const auto parsed = ckpt::parse_jsonl(text);
  EXPECT_EQ(text, ckpt::to_jsonl(parsed));
  EXPECT_EQ(parsed.state.next_step, 42u);
  EXPECT_EQ(parsed.state.steps, 100u);
  EXPECT_EQ(parsed.extras.at("mode"), "dynamic");
}

// Every byte of the format, pinned: the fixture fills every section, so a
// writer and reader that change together (which SaveLoadSaveByteIdentical
// would not notice) still fail here. Changing this text is a format break
// and must bump kFormatVersion.
TEST(CheckpointFormat, GoldenSampleFileBytes) {
  EXPECT_EQ(
      ckpt::to_jsonl(sample_file()),
      "{\"magic\":\"mmog-ckpt\",\"version\":1,\"next_step\":42,\"steps\":100,"
      "\"units\":1,\"games\":1}\n"
      "{\"section\":\"extras\",\"data\":{\"in\":\"traces/demo.csv\","
      "\"mode\":\"dynamic\"}}\n"
      "{\"section\":\"sim\",\"next_allocation_id\":7,"
      "\"unplaced_cpu_unit_steps\":3.25,\"total_cost\":1234.5625}\n"
      "{\"section\":\"faults\",\"events\":[{\"kind\":\"outage\",\"dc\":1,"
      "\"from\":50,\"to\":60,\"severity\":1}]}\n"
      "{\"section\":\"ledgers\",\"items\":[{\"in_use\":[2.5,8,1,1],"
      "\"capacity_fraction\":0.75,\"cpu_sum\":99.125,\"cpu_peak\":4.5,"
      "\"origin_sum\":{\"Europe\":77.25}},{\"in_use\":[0,0,0,0],"
      "\"capacity_fraction\":1,\"cpu_sum\":0,\"cpu_peak\":0,"
      "\"origin_sum\":{}}]}\n"
      "{\"section\":\"unit\",\"index\":0,\"game\":0,\"region\":\"Europe\","
      "\"allocated\":[2.5,8,1,1],\"allocations\":[{\"id\":3,\"dc\":0,"
      "\"game\":0,\"group\":2,\"region_id\":1,\"amount\":[2.5,8,1,1],"
      "\"start\":40,\"usable\":40,\"release\":45},{\"id\":4,\"dc\":0,"
      "\"game\":0,\"group\":2,\"region_id\":1,\"amount\":[2.5,8,1,1],"
      "\"start\":40,\"usable\":40,\"release\":-1}],\"backoff\":[{\"dc\":1,"
      "\"failures\":2,\"until\":44}],"
      "\"groups\":[{\"predictor\":\"Last value\",\"state\":[512],"
      "\"last_prediction\":512,\"abs_error_ewma\":3.5}]}\n"
      "{\"section\":\"metrics\",\"scope\":\"global\",\"rows\":[[2.5,8,1,1,2,"
      "6,0.5,0.5,0,0,0,0,3]]}\n"
      "{\"section\":\"metrics\",\"scope\":\"game\",\"index\":0,"
      "\"rows\":[[2.5,8,1,1,2,6,0.5,0.5,0,0,0,0,3]]}\n"
      "{\"section\":\"sla\",\"scope\":\"global\",\"stats\":{\"steps\":42,"
      "\"downtime_steps\":2,\"shed_steps\":0,\"breach_episodes\":1,"
      "\"recoveries\":1,\"longest_breach_steps\":2,"
      "\"mean_time_to_recover_steps\":0,\"max_time_to_recover_steps\":0},"
      "\"streak\":0,\"recovered_steps_sum\":2}\n"
      "{\"section\":\"sla\",\"scope\":\"game\",\"index\":0,"
      "\"stats\":{\"steps\":42,\"downtime_steps\":2,\"shed_steps\":0,"
      "\"breach_episodes\":1,\"recoveries\":1,\"longest_breach_steps\":2,"
      "\"mean_time_to_recover_steps\":0,\"max_time_to_recover_steps\":0},"
      "\"streak\":0,\"recovered_steps_sum\":2}\n"
      "{\"section\":\"counters\",\"data\":{\"match.offers_rejected\":5,"
      "\"sim.steps\":42}}\n"
      "{\"section\":\"audit\",\"count\":1}\n"
      "{\"seq\":0,\"step\":0,\"kind\":\"match\",\"game\":0,"
      "\"region\":\"Europe\",\"predicted\":512,\"actual\":500,"
      "\"margin_cpu\":0,\"demand_cpu\":2.5,\"held_cpu\":0,\"released_cpu\":0,"
      "\"requested_cpu\":0,\"granted_cpu\":2.5,\"unmet_cpu\":0,\"dc\":0,"
      "\"cause\":\"\",\"alloc_id\":0,\"offers\":[{\"dc\":0,"
      "\"outcome\":\"granted\",\"cpu\":2.5,\"until_step\":0}]}\n"
      "{\"footer\":\"fnv1a64\",\"hash\":\"aeffaaeb240a3f59\"}\n");
}

TEST(CheckpointFormat, NeverReleaseStepSurvives) {
  // SIZE_MAX does not survive a JSON double; the format encodes it as -1
  // and must give back exactly SIZE_MAX.
  const auto parsed = ckpt::parse_jsonl(ckpt::to_jsonl(sample_file()));
  ASSERT_EQ(parsed.state.units.size(), 1u);
  ASSERT_EQ(parsed.state.units[0].allocations.size(), 2u);
  EXPECT_EQ(parsed.state.units[0].allocations[0].earliest_release_step, 45u);
  EXPECT_EQ(parsed.state.units[0].allocations[1].earliest_release_step,
            SIZE_MAX);
}

TEST(CheckpointFormat, RejectsBadMagic) {
  auto text = ckpt::to_jsonl(sample_file());
  const auto pos = text.find("mmog-ckpt");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "mmog-XXXX");
  EXPECT_THROW(ckpt::parse_jsonl(refooter(strip_footer(text))),
               ckpt::CheckpointError);
}

TEST(CheckpointFormat, RejectsWrongVersion) {
  auto text = ckpt::to_jsonl(sample_file());
  const auto pos = text.find("\"version\":1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "\"version\":2");
  // Footer recomputed, so only the version check can reject it.
  EXPECT_THROW(ckpt::parse_jsonl(refooter(strip_footer(text))),
               ckpt::CheckpointError);
}

TEST(CheckpointFormat, RejectsBitFlip) {
  auto text = ckpt::to_jsonl(sample_file());
  text[text.size() / 2] ^= 0x01;
  EXPECT_THROW(ckpt::parse_jsonl(text), ckpt::CheckpointError);
}

TEST(CheckpointFormat, RejectsTruncation) {
  const auto text = ckpt::to_jsonl(sample_file());
  // Torn anywhere — mid-line, at a line boundary, before the footer — the
  // file must be rejected, never partially loaded.
  EXPECT_THROW(ckpt::parse_jsonl(text.substr(0, text.size() - 7)),
               ckpt::CheckpointError);
  EXPECT_THROW(ckpt::parse_jsonl(strip_footer(text)), ckpt::CheckpointError);
  EXPECT_THROW(ckpt::parse_jsonl(text.substr(0, text.size() / 3)),
               ckpt::CheckpointError);
  EXPECT_THROW(ckpt::parse_jsonl(""), ckpt::CheckpointError);
}

TEST(CheckpointFormat, RejectsMissingSection) {
  const auto text = ckpt::to_jsonl(sample_file());
  // Drop one interior line (the second line, after the header) and mend the
  // footer: the strict section order must notice.
  const auto first_nl = text.find('\n');
  const auto second_nl = text.find('\n', first_nl + 1);
  auto cut = text.substr(0, first_nl + 1) + text.substr(second_nl + 1);
  EXPECT_THROW(ckpt::parse_jsonl(refooter(strip_footer(cut))),
               ckpt::CheckpointError);
}

/// The (re-footered, so consistent) text with the first `from` replaced.
std::string tampered(const std::string& from, const std::string& to) {
  auto text = strip_footer(ckpt::to_jsonl(sample_file()));
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return refooter(text);
}

TEST(CheckpointFormat, RejectsIntegersItCannotHold) {
  // Values no member can hold: each must be a CheckpointError, never a
  // wrapped or truncated load.
  EXPECT_THROW(
      ckpt::parse_jsonl(tampered("\"release\":45", "\"release\":1e300")),
      ckpt::CheckpointError);
  // The last cell of a metrics row is its machine count.
  EXPECT_THROW(ckpt::parse_jsonl(tampered("0,0,0,0,3]]", "0,0,0,0,1e300]]")),
               ckpt::CheckpointError);
  EXPECT_THROW(
      ckpt::parse_jsonl(tampered("\"dc\":1,\"from\"", "\"dc\":-1,\"from\"")),
      ckpt::CheckpointError);
  // -1 is the never-release encoding, not a range error.
  const auto parsed =
      ckpt::parse_jsonl(tampered("\"release\":45", "\"release\":-1"));
  EXPECT_EQ(parsed.state.units.at(0).allocations.at(0).earliest_release_step,
            SIZE_MAX);
}

/// One seeded mutation of `text`: a byte flip, a deletion, a duplicated
/// line, a digit or sign swap, or a run of '['.
void mutate(std::string& text, util::Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::size_t at = pick(text.size());
  // The first digit at or after `at` (a digit always exists: the counts).
  const auto digit_from = [&](std::size_t from) {
    const std::size_t d = text.find_first_of("0123456789", from);
    return d == std::string::npos ? text.find_first_of("0123456789") : d;
  };
  switch (rng.uniform_int(0, 5)) {
    case 0:
      text[at] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    case 1:
      text.erase(at, 1 + pick(8));
      break;
    case 2: {
      const std::size_t begin = text.rfind('\n', at) + 1;  // npos + 1 == 0
      const std::size_t end = text.find('\n', at);
      const std::string line = text.substr(begin, end - begin + 1);
      text.insert(begin, line);
      break;
    }
    case 3: {
      const std::size_t d = digit_from(at);
      text[d] = static_cast<char>('0' + pick(10));
      break;
    }
    case 4: {
      const std::size_t d = digit_from(at);
      if (d > 0 && text[d - 1] == '-') {
        text.erase(d - 1, 1);
      } else {
        text.insert(d, 1, '-');
      }
      break;
    }
    default:
      text.insert(at, std::size_t{1} << pick(18), '[');
      break;
  }
}

TEST(CheckpointFormat, MutatedFilesParseOrThrowCheckpointError) {
  // Re-footered, so every mutant passes the checksum and reaches the
  // parser: each must load or throw CheckpointError, never another
  // exception or a crash.
  const std::string body = strip_footer(ckpt::to_jsonl(sample_file()));
  util::Rng rng(2028);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string text = body;
    mutate(text, rng);
    try {
      (void)ckpt::parse_jsonl(refooter(text));
      ++loaded;
    } catch (const ckpt::CheckpointError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what();
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(CheckpointWrite, KeepsPreviousGeneration) {
  const test::TestDir dir;
  const auto path = (dir / "run.ckpt").string();

  auto first = sample_file();
  ckpt::write_checkpoint_file(path, first);
  EXPECT_FALSE(fs::exists(path + ".prev"));

  auto second = first;
  second.state.next_step = 84;
  ckpt::write_checkpoint_file(path, second);
  ASSERT_TRUE(fs::exists(path + ".prev"));

  const auto newest = ckpt::load_newest_valid(path);
  EXPECT_EQ(newest.file.state.next_step, 84u);
  EXPECT_TRUE(newest.notes.empty());
  std::ifstream prev(path + ".prev", std::ios::binary);
  std::string prev_text((std::istreambuf_iterator<char>(prev)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(ckpt::parse_jsonl(prev_text).state.next_step, 42u);
}

TEST(CheckpointLoad, FallsBackToPrevWhenNewestCorrupt) {
  const test::TestDir dir;
  const auto path = (dir / "run.ckpt").string();

  auto older = sample_file();
  write_file(path + ".prev", ckpt::to_jsonl(older));
  auto torn = ckpt::to_jsonl(sample_file());
  write_file(path, torn.substr(0, torn.size() / 2));

  const auto loaded = ckpt::load_newest_valid(path);
  EXPECT_EQ(loaded.path, path + ".prev");
  EXPECT_EQ(loaded.file.state.next_step, 42u);
  ASSERT_FALSE(loaded.notes.empty());  // the skip is reported, not silent
  EXPECT_NE(loaded.notes[0].find(path), std::string::npos);
}

TEST(CheckpointLoad, FallsBackToPrevWhenNewestHoldsAWrongType) {
  const test::TestDir dir;
  const auto path = (dir / "run.ckpt").string();

  write_file(path + ".prev", ckpt::to_jsonl(sample_file()));
  // The checksum matches; only the string where a number belongs is wrong.
  write_file(path, tampered("\"in_use\":[2.5,", "\"in_use\":[\"x\","));

  const auto loaded = ckpt::load_newest_valid(path);
  EXPECT_EQ(loaded.path, path + ".prev");
  EXPECT_EQ(loaded.file.state.next_step, 42u);
  ASSERT_EQ(loaded.notes.size(), 1u);
  EXPECT_NE(loaded.notes[0].find(path), std::string::npos);
}

TEST(CheckpointLoad, FallsBackToPrevWhenNewestNestsTooDeep) {
  // The checksum matches, so only the JSON parser stands between 100,000
  // nested arrays and the end of the stack.
  const test::TestDir dir;
  const auto path = (dir / "run.ckpt").string();

  write_file(path + ".prev", ckpt::to_jsonl(sample_file()));
  write_file(path, tampered("\"in_use\":[2.5,",
                            "\"in_use\":[" + std::string(100000, '[') +
                                "2.5,"));

  const auto loaded = ckpt::load_newest_valid(path);
  EXPECT_EQ(loaded.path, path + ".prev");
  EXPECT_EQ(loaded.file.state.next_step, 42u);
  ASSERT_EQ(loaded.notes.size(), 1u);
  EXPECT_NE(loaded.notes[0].find("nesting"), std::string::npos)
      << loaded.notes[0];
}

TEST(CheckpointLoad, ThrowsWhenNoCandidateValid) {
  const test::TestDir dir;
  const auto path = (dir / "run.ckpt").string();
  write_file(path, "garbage\n");
  write_file(path + ".prev", "also garbage\n");
  try {
    ckpt::load_newest_valid(path);
    FAIL() << "expected CheckpointError";
  } catch (const ckpt::CheckpointError& e) {
    // The message names both candidates.
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(".prev"), std::string::npos);
  }
  EXPECT_THROW(ckpt::load_newest_valid((dir / "missing.ckpt").string()),
               ckpt::CheckpointError);
}

TEST(CheckpointDiff, IdenticalFilesMatch) {
  const auto text = ckpt::to_jsonl(sample_file());
  const auto diff = ckpt::diff_checkpoints(text, text);
  EXPECT_FALSE(diff.regression());
  EXPECT_TRUE(diff.notes.empty());
}

TEST(CheckpointDiff, NotesCarryFieldPaths) {
  const auto a = sample_file();
  auto b = sample_file();
  b.state.ledgers[0].in_use.v[0] = 99.0;
  const auto diff =
      ckpt::diff_checkpoints(ckpt::to_jsonl(a), ckpt::to_jsonl(b));
  EXPECT_TRUE(diff.regression());
  ASSERT_FALSE(diff.notes.empty());
  EXPECT_NE(diff.notes[0].find("ledgers"), std::string::npos)
      << diff.notes[0];
}

TEST(CheckpointDiff, RejectsCorruptInput) {
  const auto text = ckpt::to_jsonl(sample_file());
  EXPECT_THROW(ckpt::diff_checkpoints(text.substr(0, text.size() - 5), text),
               ckpt::CheckpointError);
}

TEST(CheckpointChecksum, Fnv1a64KnownVectors) {
  EXPECT_EQ(ckpt::fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(ckpt::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

}  // namespace
}  // namespace mmog
