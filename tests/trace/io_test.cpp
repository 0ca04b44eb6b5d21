#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "trace/runescape_model.hpp"
#include "util/alloccount.hpp"
#include "util/rng.hpp"

namespace mmog::trace {
namespace {

WorldTrace tiny_world() {
  WorldTrace world;
  RegionalTrace region;
  region.name = "Europe";
  region.utc_offset_hours = 1;
  ServerGroupTrace g1;
  g1.name = "Europe-1";
  g1.capacity = 2000;
  g1.players = util::TimeSeries(util::kSampleStepSeconds, {10, 20, 30});
  ServerGroupTrace g2;
  g2.name = "Europe-2";
  g2.capacity = 1500;
  g2.players = util::TimeSeries(util::kSampleStepSeconds, {5, 6, 7});
  region.groups = {g1, g2};
  world.regions.push_back(std::move(region));
  return world;
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const auto world = tiny_world();
  std::ostringstream out;
  write_world_csv(out, world);
  std::istringstream in(out.str());
  const auto loaded = read_world_csv(in);

  ASSERT_EQ(loaded.regions.size(), 1u);
  const auto& region = loaded.regions[0];
  EXPECT_EQ(region.name, "Europe");
  EXPECT_EQ(region.utc_offset_hours, 1);
  ASSERT_EQ(region.groups.size(), 2u);
  EXPECT_EQ(region.groups[0].name, "Europe-1");
  EXPECT_EQ(region.groups[1].capacity, 1500u);
  ASSERT_EQ(region.groups[0].players.size(), 3u);
  EXPECT_DOUBLE_EQ(region.groups[0].players[2], 30.0);
  EXPECT_DOUBLE_EQ(region.groups[1].players[0], 5.0);
}

TEST(TraceIoTest, RoundTripOnGeneratedWorld) {
  auto cfg = RuneScapeModelConfig::paper_default();
  cfg.steps = 50;
  cfg.seed = 3;
  cfg.regions.resize(2);
  cfg.regions[0].server_groups = 3;
  cfg.regions[1].server_groups = 2;
  const auto world = generate(cfg);

  std::ostringstream out;
  write_world_csv(out, world);
  std::istringstream in(out.str());
  const auto loaded = read_world_csv(in);

  ASSERT_EQ(loaded.regions.size(), world.regions.size());
  for (std::size_t r = 0; r < world.regions.size(); ++r) {
    ASSERT_EQ(loaded.regions[r].groups.size(), world.regions[r].groups.size());
    for (std::size_t g = 0; g < world.regions[r].groups.size(); ++g) {
      const auto& a = world.regions[r].groups[g].players;
      const auto& b = loaded.regions[r].groups[g].players;
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t t = 0; t < a.size(); ++t) {
        EXPECT_DOUBLE_EQ(a[t], b[t]);
      }
    }
  }
}

TEST(TraceIoTest, RejectsMissingColumns) {
  std::istringstream in("region,group\nEurope,G1\n");
  EXPECT_THROW(read_world_csv(in), std::out_of_range);
}

TEST(TraceIoTest, RejectsNonNumericCells) {
  std::istringstream in(
      "region,utc_offset_hours,group,capacity,step,players\n"
      "Europe,1,G1,2000,0,abc\n");
  EXPECT_THROW(read_world_csv(in), std::runtime_error);
}

TEST(TraceIoTest, RejectsNonContiguousSteps) {
  std::istringstream in(
      "region,utc_offset_hours,group,capacity,step,players\n"
      "Europe,1,G1,2000,0,10\n"
      "Europe,1,G1,2000,2,20\n");
  EXPECT_THROW(read_world_csv(in), std::runtime_error);
}

TEST(TraceIoTest, RejectsShortRows) {
  std::istringstream in(
      "region,utc_offset_hours,group,capacity,step,players\n"
      "Europe,1,G1\n");
  EXPECT_THROW(read_world_csv(in), std::runtime_error);
}

TEST(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(read_world_csv_file("/nonexistent/missing.csv"),
               std::runtime_error);
}

constexpr const char* kHeader =
    "region,utc_offset_hours,group,capacity,step,players\n";

WorldTrace read_text(const std::string& text) {
  std::istringstream in(text);
  return read_world_csv(in);
}

/// One group's series as plain values.
std::vector<double> series(const WorldTrace& world, std::size_t r,
                           std::size_t g) {
  const auto values = world.regions.at(r).groups.at(g).players.values();
  return {values.begin(), values.end()};
}

/// A world of `groups` groups over `steps` steps with non-integer players.
WorldTrace fractional_world(std::size_t groups, std::size_t steps) {
  WorldTrace world;
  RegionalTrace region;
  region.name = "Europe";
  region.utc_offset_hours = -3;
  util::Rng rng(11);
  for (std::size_t g = 0; g < groups; ++g) {
    ServerGroupTrace group;
    group.name = "Europe-" + std::to_string(g + 1);
    group.players = util::TimeSeries(util::kSampleStepSeconds);
    for (std::size_t t = 0; t < steps; ++t) {
      group.players.push_back(rng.uniform(0.0, 2000.0));
    }
    region.groups.push_back(std::move(group));
  }
  world.regions.push_back(std::move(region));
  return world;
}

std::string to_csv(const WorldTrace& world) {
  std::ostringstream out;
  write_world_csv(out, world);
  return out.str();
}

// CsvTest: the CSV grammar read_world_csv accepts.

TEST(CsvTest, ParsesSimpleDocument) {
  const auto world = read_text(std::string(kHeader) +
                               "Europe,1,G1,2000,0,10\n"
                               "Europe,1,G1,2000,1,20\n"
                               "Asia,8,G2,1500,0,5.5\n");
  ASSERT_EQ(world.regions.size(), 2u);
  EXPECT_EQ(world.regions[1].name, "Asia");
  EXPECT_EQ(world.regions[1].utc_offset_hours, 8);
  EXPECT_EQ(world.regions[1].groups[0].capacity, 1500u);
  EXPECT_EQ(series(world, 0, 0), (std::vector<double>{10, 20}));
  EXPECT_EQ(series(world, 1, 0), (std::vector<double>{5.5}));
}

TEST(CsvTest, ColumnLookup) {
  // Columns in any order, plus one the reader does not know.
  const auto world = read_text(
      "players,step,note,group,capacity,utc_offset_hours,region\n"
      "7,0,x,G1,900,-5,US\n"
      "8,1,y,G1,900,-5,US,trailing\n");
  ASSERT_EQ(world.regions.size(), 1u);
  EXPECT_EQ(world.regions[0].name, "US");
  EXPECT_EQ(world.regions[0].utc_offset_hours, -5);
  EXPECT_EQ(world.regions[0].groups[0].capacity, 900u);
  EXPECT_EQ(series(world, 0, 0), (std::vector<double>{7, 8}));
}

TEST(CsvTest, HandlesQuotedFields) {
  const auto world = read_text(std::string(kHeader) +
                               "\"Europe, West\",1,\"a,b\",2000,0,1\n"
                               "E,1,\"say \"\"hi\"\"\",2000,0,1\n");
  ASSERT_EQ(world.regions.size(), 2u);
  EXPECT_EQ(world.regions[0].name, "Europe, West");
  EXPECT_EQ(world.regions[0].groups[0].name, "a,b");
  EXPECT_EQ(world.regions[1].groups[0].name, "say \"hi\"");
}

TEST(CsvTest, HandlesQuotedNewlines) {
  const auto world = read_text(std::string(kHeader) +
                               "E,1,\"line1\nline2\",2000,0,1\n"
                               "E,1,\"line1\nline2\",2000,1,2\n");
  ASSERT_EQ(world.regions[0].groups.size(), 1u);
  EXPECT_EQ(world.regions[0].groups[0].name, "line1\nline2");
  EXPECT_EQ(series(world, 0, 0), (std::vector<double>{1, 2}));
}

TEST(CsvTest, HandlesCrLf) {
  // CRLF line ends, and lone CRs with no newline at the end.
  for (const char* text :
       {"region,utc_offset_hours,group,capacity,step,players\r\n"
        "E,1,G,2000,0,1\r\nE,1,G,2000,1,2\r\n",
        "region,utc_offset_hours,group,capacity,step,players\r"
        "E,1,G,2000,0,1\rE,1,G,2000,1,2"}) {
    const auto world = read_text(text);
    EXPECT_EQ(world.regions[0].groups[0].name, "G");
    EXPECT_EQ(series(world, 0, 0), (std::vector<double>{1, 2}));
  }
}

TEST(CsvTest, SkipsTrailingEmptyLines) {
  const auto world =
      read_text(std::string(kHeader) + "E,1,G,2000,0,1\n\nE,1,G,2000,1,2\n\n\n");
  EXPECT_EQ(series(world, 0, 0), (std::vector<double>{1, 2}));
}

TEST(CsvTest, ThrowsOnUnterminatedQuote) {
  EXPECT_THROW(read_text(std::string(kHeader) + "E,1,\"oops,2000,0,1\n"),
               std::runtime_error);
}

TEST(CsvTest, ThrowsOnQuoteMidField) {
  EXPECT_THROW(read_text(std::string(kHeader) + "E,1,ab\"c,2000,0,1\n"),
               std::runtime_error);
}

TEST(CsvTest, WriteReadRoundTrip) {
  // Names holding a comma, a quote and line ends read back as written.
  WorldTrace world = fractional_world(3, 4);
  world.regions[0].name = "West, \"old\"\nworld";
  world.regions[0].groups[0].name = "a,b";
  world.regions[0].groups[1].name = "say \"hi\"";
  world.regions[0].groups[2].name = "multi\r\nline\n";
  const auto loaded = read_text(to_csv(world));
  ASSERT_EQ(loaded.regions.size(), 1u);
  EXPECT_EQ(loaded.regions[0].name, world.regions[0].name);
  ASSERT_EQ(loaded.regions[0].groups.size(), 3u);
  for (std::size_t g = 0; g < 3; ++g) {
    EXPECT_EQ(loaded.regions[0].groups[g].name, world.regions[0].groups[g].name);
    EXPECT_EQ(loaded.regions[0].groups[g].players.size(), 4u);
  }
}

TEST(CsvTest, MissingFileThrows) {
  // The error names the path it could not open.
  const std::string path = "/nonexistent/definitely_missing.csv";
  try {
    read_world_csv_file(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(TraceIoTest, ReadsInterleavedGroups) {
  // Rows ordered by step rather than by group revisit each group.
  const auto world = read_text(std::string(kHeader) +
                               "E,0,A,10,0,1\nE,0,B,10,0,2\nW,0,C,10,0,3\n"
                               "E,0,A,10,1,4\nE,0,B,10,1,5\nW,0,C,10,1,6\n");
  ASSERT_EQ(world.regions.size(), 2u);
  ASSERT_EQ(world.regions[0].groups.size(), 2u);
  EXPECT_EQ(world.regions[0].groups[1].name, "B");
  EXPECT_EQ(series(world, 0, 0), (std::vector<double>{1, 4}));
  EXPECT_EQ(series(world, 0, 1), (std::vector<double>{2, 5}));
  EXPECT_EQ(series(world, 1, 0), (std::vector<double>{3, 6}));
}

TEST(TraceIoTest, HeaderOnlyIsAnEmptyWorld) {
  EXPECT_TRUE(read_text(kHeader).regions.empty());
}

TEST(TraceIoTest, EmptyInputHasNoColumns) {
  EXPECT_THROW(read_text(""), std::out_of_range);
}

TEST(TraceIoTest, QuotedRecordsCrossBlockBoundaries) {
  // ~2.6 MB of quoted rows: records straddle every 1 MiB block edge, and
  // the quoted path reads the same values as the unquoted one.
  const WorldTrace plain = fractional_world(4, 12000);
  WorldTrace world = plain;
  for (auto& group : world.regions[0].groups) group.name += ",\"q\"\n";
  const auto loaded = read_text(to_csv(world));
  const auto expected = read_text(to_csv(plain));
  ASSERT_EQ(loaded.regions[0].groups.size(), 4u);
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_EQ(loaded.regions[0].groups[g].name,
              world.regions[0].groups[g].name);
    EXPECT_EQ(series(loaded, 0, g), series(expected, 0, g));
  }
}

TEST(TraceIoTest, ReadsARecordLongerThanABlock) {
  const std::string name(3 << 20, 'n');
  const auto world = read_text(std::string(kHeader) + "E,1,\"" + name +
                               "\",2000,0,1\nE,1," + name + ",2000,1,2\n");
  ASSERT_EQ(world.regions[0].groups.size(), 1u);
  EXPECT_EQ(world.regions[0].groups[0].name, name);
  EXPECT_EQ(series(world, 0, 0), (std::vector<double>{1, 2}));
}

TEST(TraceIoTest, PlayersMatchStodBitForBit) {
  const auto world = fractional_world(2, 500);
  const std::string csv = to_csv(world);
  const auto loaded = read_text(csv);
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  std::size_t rows = 0;
  for (std::size_t g = 0; g < 2; ++g) {
    for (const double value : loaded.regions[0].groups[g].players.values()) {
      ASSERT_TRUE(std::getline(lines, line));
      const double expected = std::stod(line.substr(line.rfind(',') + 1));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(value),
                std::bit_cast<std::uint64_t>(expected))
          << line;
      ++rows;
    }
  }
  EXPECT_EQ(rows, 1000u);
}

TEST(TraceIoTest, FractionalPlayersRoundTripBitForBit) {
  // Written in the shortest round-trip form: no value loses digits, and
  // whole counts carry no fraction.
  const std::vector<double> values = {
      0.1,    2.5e-7, 1e21, 1234.5678901234567, 5e-324,
      1e-300, 0.0,    7.0,  std::nextafter(1.0, 2.0)};
  WorldTrace world = tiny_world();
  world.regions[0].groups.resize(1);
  world.regions[0].groups[0].players =
      util::TimeSeries(util::kSampleStepSeconds, values);
  const std::string csv = to_csv(world);
  const auto loaded = series(read_text(csv), 0, 0);
  ASSERT_EQ(loaded.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(loaded[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << values[i];
  }
  EXPECT_NE(csv.find(",6,0\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find(",7,7\n"), std::string::npos) << csv;
}

/// A one-row CSV whose cells are all valid except the one given.
std::string row_with(const std::string& offset, const std::string& capacity,
                     const std::string& step, const std::string& players) {
  return std::string(kHeader) + "E," + offset + ",G," + capacity + "," +
         step + "," + players + "\n";
}

TEST(TraceIoTest, RejectsNonFinitePlayers) {
  for (const char* players : {"nan", "inf", "-inf", "1e400"}) {
    EXPECT_THROW(read_text(row_with("1", "2000", "0", players)),
                 std::runtime_error)
        << players;
  }
}

TEST(TraceIoTest, RejectsNegativePlayers) {
  EXPECT_THROW(read_text(row_with("1", "2000", "0", "-1")),
               std::runtime_error);
}

TEST(TraceIoTest, RejectsNegativeStep) {
  EXPECT_THROW(read_text(row_with("1", "2000", "-1", "5")),
               std::runtime_error);
}

TEST(TraceIoTest, RejectsFractionalStep) {
  EXPECT_THROW(read_text(row_with("1", "2000", "1.5", "5")),
               std::runtime_error);
  EXPECT_THROW(read_text(row_with("1", "2000", "0.0", "5")),
               std::runtime_error);
}

TEST(TraceIoTest, RejectsNegativeCapacity) {
  EXPECT_THROW(read_text(row_with("1", "-5", "0", "5")), std::runtime_error);
}

TEST(TraceIoTest, RejectsOffsetOutsideOneDay) {
  EXPECT_NO_THROW(read_text(row_with("-24", "2000", "0", "5")));
  EXPECT_NO_THROW(read_text(row_with("24", "2000", "0", "5")));
  for (const char* offset : {"25", "-25", "99999999999999999999"}) {
    EXPECT_THROW(read_text(row_with(offset, "2000", "0", "5")),
                 std::runtime_error)
        << offset;
  }
}

TEST(TraceIoTest, RejectsHugeOffset) {
  EXPECT_THROW(read_text(row_with("1e300", "2000", "0", "5")),
               std::runtime_error);
}

TEST(TraceIoTest, RejectsBlanksAndPlusSigns) {
  // std::stod accepted these (and truncated "2000.0"); cells must now be
  // bare numbers.
  EXPECT_THROW(read_text(row_with(" 1", "2000", "0", "5")), std::runtime_error);
  EXPECT_THROW(read_text(row_with("+1", "2000", "0", "5")), std::runtime_error);
  EXPECT_THROW(read_text(row_with("1", "2000.0", "0", "5")),
               std::runtime_error);
  EXPECT_THROW(read_text(row_with("1", "2000", "0", " 5")), std::runtime_error);
  EXPECT_THROW(read_text(row_with("1", "2000", "0", "+5")), std::runtime_error);
}

TEST(TraceIoTest, ReadingAllocatesLittle) {
  // 5 groups x 8,000 steps (~1.8 MB): the block buffer and the series
  // storage, never a per-row allocation.
  const std::string csv = to_csv(fractional_world(5, 8000));
  std::istringstream in(csv);
  util::alloccount::Scope scope;
  const auto before = util::alloccount::totals();
  const auto world = read_world_csv(in);
  const auto used = util::alloccount::totals() - before;
  EXPECT_EQ(world.steps(), 8000u);
  EXPECT_LE(used.allocs, 64u);
  EXPECT_LT(used.bytes, csv.size());
}

TEST(TraceIoTest, MutatedInputParsesOrThrows) {
  // Seeded byte flips, inserts and deletes of a small CSV: each mutant
  // either loads or throws one of the two documented exceptions.
  WorldTrace base = fractional_world(2, 6);
  base.regions[0].groups[1].name = "q\"uo,ted\n";
  const std::string csv = to_csv(base);
  const std::string alphabet = ",\"\r\n-+.0123456789eEinfa x";
  util::Rng rng(2024);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string text = csv;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    const char ch = rng.bernoulli(0.5)
                        ? alphabet[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(alphabet.size()) -
                                     1))]
                        : static_cast<char>(rng.uniform_int(0, 255));
    switch (rng.uniform_int(0, 2)) {
      case 0: text[at] = ch; break;
      case 1: text.insert(at, 1, ch); break;
      default: text.erase(at, 1); break;
    }
    try {
      read_text(text);
      ++loaded;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::out_of_range&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what();
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace mmog::trace
