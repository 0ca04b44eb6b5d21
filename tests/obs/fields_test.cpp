// The field codec every persisted record rides on: one field list drives
// the writer, the checked reader and the leaf diff. These cases use a
// local record that exercises every kind of member the lists use.

#include "obs/fields.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace mmog::obs {
namespace {

struct TestError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class Color { kRed, kBlue };
constexpr EnumName<Color> kColorNames[] = {{Color::kRed, "red"},
                                           {Color::kBlue, "blue"}};

struct Cell {
  std::uint32_t id = 0;
  double weight = 0.0;
  friend bool operator==(const Cell&, const Cell&) = default;
};

void cells(auto& v, Of<Cell> auto& cell) {
  v(cell.id);
  v(cell.weight);
}

struct Sample {
  std::int32_t small = 0;
  std::uint64_t big = 0;
  std::size_t until = 0;
  Color color = Color::kRed;
  std::string name;
  std::array<double, 2> pair{};
  std::vector<Cell> rows;
  std::map<std::string, double> sums;
  double extra = 0.0;
  std::uint32_t count = 0;
};

void fields(auto& v, Of<Sample> auto& s) {
  v.tag("kind", "sample");
  v("small", s.small);
  v("big", s.big);
  v("until", or_never(s.until));
  v("color", by_name(s.color, kColorNames));
  v("name", s.name);
  v("pair", s.pair);
  v("rows", s.rows);
  v("sums", s.sums);
  v.optional("extra", s.extra);
  v.group("inner", [&](auto& inner) { inner("count", s.count); });
  v.write_only("twice", 2.0 * s.small);
}

Sample sample() {
  Sample s;
  s.small = -3;
  s.big = 9007199254740992ull;
  s.until = SIZE_MAX;
  s.color = Color::kBlue;
  s.name = "a \"quoted\"\nname";
  s.pair = {0.1, 2.0};
  s.rows = {{1, 0.5}, {2, 1.25}};
  s.sums = {{"x\ty", 1.5}};
  s.extra = 7.0;
  s.count = 4;
  return s;
}

std::string write(const Sample& s) {
  std::string out;
  FieldWriter writer(out);
  writer(s);
  return out;
}

Sample read(const std::string& json) {
  const JsonValue doc = parse_json(json);
  Sample s;
  FieldReader<TestError> reader(doc, "sample");
  fields(reader, s);
  return s;
}

/// write(sample()) with the first `from` replaced by `to`.
std::string edited(const std::string& from, const std::string& to) {
  auto text = write(sample());
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

TEST(FieldCodecTest, WritesEachMemberKindOnce) {
  EXPECT_EQ(write(sample()),
            "{\"kind\":\"sample\",\"small\":-3,\"big\":9007199254740992,"
            "\"until\":-1,\"color\":\"blue\","
            "\"name\":\"a \\\"quoted\\\"\\nname\",\"pair\":[0.1,2],"
            "\"rows\":[[1,0.5],[2,1.25]],\"sums\":{\"x\\ty\":1.5},"
            "\"extra\":7,\"inner\":{\"count\":4},\"twice\":-6}");
}

TEST(FieldCodecTest, ReadRestoresEveryMember) {
  const Sample s = read(write(sample()));
  const Sample want = sample();
  EXPECT_EQ(s.small, want.small);
  EXPECT_EQ(s.big, want.big);
  EXPECT_EQ(s.until, SIZE_MAX);
  EXPECT_EQ(s.color, Color::kBlue);
  EXPECT_EQ(s.name, want.name);
  EXPECT_EQ(s.pair, want.pair);
  EXPECT_EQ(s.rows, want.rows);
  EXPECT_EQ(s.sums, want.sums);
  EXPECT_EQ(s.extra, 7.0);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(write(s), write(want));
}

TEST(FieldCodecTest, IntegersMustBeIntegralAndFitTheirMember) {
  EXPECT_EQ(read(edited("\"small\":-3", "\"small\":-2147483648")).small,
            INT32_MIN);
  EXPECT_THROW(read(edited("\"small\":-3", "\"small\":2147483648")),
               TestError);
  EXPECT_THROW(read(edited("\"small\":-3", "\"small\":1.5")), TestError);
  EXPECT_THROW(read(edited("\"big\":9007199254740992", "\"big\":-1")),
               TestError);
  EXPECT_THROW(read(edited("\"big\":9007199254740992", "\"big\":1e300")),
               TestError);
  EXPECT_THROW(read(edited("\"count\":4", "\"count\":4294967296")),
               TestError);
  EXPECT_THROW(read(edited("[1,0.5]", "[-1,0.5]")), TestError);
}

TEST(FieldCodecTest, NeverIsMinusOneAndNothingElseNegative) {
  EXPECT_EQ(read(edited("\"until\":-1", "\"until\":12")).until, 12u);
  EXPECT_THROW(read(edited("\"until\":-1", "\"until\":-2")), TestError);
}

TEST(FieldCodecTest, RejectsWrongShapes) {
  EXPECT_THROW(read(edited("\"blue\"", "\"green\"")), TestError);
  EXPECT_THROW(read(edited("\"small\":-3", "\"small\":\"-3\"")), TestError);
  EXPECT_THROW(read(edited("[0.1,2]", "[0.1,2,3]")), TestError);
  EXPECT_THROW(read(edited("[1,0.5]", "[1]")), TestError);
  EXPECT_THROW(read(edited("[1,0.5]", "[1,0.5,9]")), TestError);
  EXPECT_THROW(read(edited("{\"count\":4}", "[4]")), TestError);
  EXPECT_THROW(read("[]"), TestError);
}

TEST(FieldCodecTest, TagsAreRequiredOptionalsAreNot) {
  EXPECT_THROW(read(edited("\"sample\"", "\"other\"")), TestError);
  EXPECT_THROW(read(edited("\"kind\":\"sample\",", "")), TestError);
  EXPECT_THROW(read(edited("\"name\"", "\"nom\"")), TestError);
  EXPECT_EQ(read(edited(",\"extra\":7", "")).extra, 0.0);
  // Written, never read back: a wrong value is not an error.
  EXPECT_EQ(read(edited("\"twice\":-6", "\"twice\":0")).small, -3);
}

TEST(FieldCodecTest, ErrorsNameTheDocumentAndTheKey) {
  try {
    read(edited("\"count\":4", "\"count\":-4"));
    FAIL() << "expected TestError";
  } catch (const TestError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("sample: count: ", 0), 0u) << what;
  }
}

TEST(FieldCodecTest, DiffNamesEachDifferingScalarByPath) {
  const Sample a = sample();
  Sample b = sample();
  b.small = 5;
  b.count = 6;
  b.name = "other";  // strings are compared too
  b.sums["y"] = 1.0;  // maps are left to the record's owner
  std::vector<std::string> notes;
  EXPECT_FALSE(diff_fields(a, b, "s", notes));
  ASSERT_EQ(notes.size(), 3u);
  EXPECT_EQ(notes[0], "s.small: -3 != 5");
  EXPECT_EQ(notes[1], "s.name: \"a \\\"quoted\\\"\\nname\" != \"other\"");
  EXPECT_EQ(notes[2], "s.inner.count: 4 != 6");
  notes.clear();
  EXPECT_TRUE(diff_fields(a, a, "s", notes));
  EXPECT_TRUE(notes.empty());
}

}  // namespace
}  // namespace mmog::obs
