// The JSON layer every artifact rides on: shortest round-trip doubles at
// the numeric extremes, escape handling (including the documented \u
// byte-truncation), and deep-nesting robustness.

#include "obs/jsonio.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace mmog::obs {
namespace {

double reparse(double v) { return parse_json(json_double(v)).as_number(); }

TEST(JsonDoubleTest, ShortestFormIsEmitted) {
  EXPECT_EQ(json_double(0.1), "0.1");
  EXPECT_EQ(json_double(1.0), "1");
  EXPECT_EQ(json_double(-2.5), "-2.5");
  EXPECT_EQ(json_double(0.0), "0");
}

TEST(JsonDoubleTest, ExtremeValuesRoundTripBitForBit) {
  // Bit identity (==, not near): equal strings iff equal bits is the
  // contract the byte-identical artifacts depend on.
  for (const double v :
       {1e308, -1e308, DBL_MAX, DBL_MIN,
        5e-324 /* smallest denormal */, -5e-324, 1e-310 /* denormal */,
        1.0 / 3.0, 0.1 + 0.2, 2.2250738585072011e-308 /* near-min edge */,
        9007199254740993.0 /* 2^53 + 1, not exactly representable */}) {
    EXPECT_EQ(reparse(v), v) << json_double(v);
  }
}

TEST(JsonDoubleTest, NonFiniteRendersAsZero) {
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(JsonEscapeTest, ControlBytesQuotesAndBackslashRoundTrip) {
  const std::string original =
      std::string("line\nbreak\ttab \"quoted\" back\\slash \r") +
      '\x01' + '\x1f' + "end";
  std::string escaped = "\"";
  append_json_escaped(escaped, original);
  escaped += '"';
  // No raw control bytes may survive escaping.
  for (char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  EXPECT_EQ(parse_json(escaped).as_string(), original);
}

TEST(JsonEscapeTest, EscapedControlBytesUseLowercaseU) {
  std::string out;
  append_json_escaped(out, std::string(1, '\x02'));
  EXPECT_EQ(out, "\\u0002");
}

TEST(JsonParseTest, StandardEscapesDecode) {
  EXPECT_EQ(parse_json("\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\"").as_string(),
            "a\"b\\c/d\b\f\n\r\t");
}

TEST(JsonParseTest, UnicodeEscapeDecodesLatin1AndTruncatesWiderPoints) {
  EXPECT_EQ(parse_json("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_json("\"\\u000a\"").as_string(), "\n");
  EXPECT_EQ(parse_json("\"\\u00e9\"").as_string(), "\xe9");
  // Documented truncation: the repo's writers only emit \u00XX, so wider
  // code points keep just their low byte (U+20AC -> 0xAC).
  EXPECT_EQ(parse_json("\"\\u20ac\"").as_string(), "\xac");
}

TEST(JsonParseTest, MalformedEscapesThrow) {
  EXPECT_THROW(parse_json("\"\\u12\""), std::invalid_argument);
  EXPECT_THROW(parse_json("\"\\u12zz\""), std::invalid_argument);
  EXPECT_THROW(parse_json("\"\\q\""), std::invalid_argument);
  EXPECT_THROW(parse_json("\"dangling\\"), std::invalid_argument);
  EXPECT_THROW(parse_json("\"unterminated"), std::invalid_argument);
}

TEST(JsonParseTest, DeeplyNestedArraysParse) {
  constexpr int kDepth = 1000;
  std::string text;
  text.append(kDepth, '[');
  text += "42";
  text.append(kDepth, ']');
  const JsonValue doc = parse_json(text);
  const JsonValue* v = &doc;
  int depth = 0;
  while (v->kind() == JsonValue::Kind::kArray) {
    ASSERT_EQ(v->as_array().size(), 1u);
    v = &v->as_array()[0];
    ++depth;
  }
  EXPECT_EQ(depth, kDepth);
  EXPECT_DOUBLE_EQ(v->as_number(), 42.0);
}

TEST(JsonParseTest, DeeplyNestedObjectsParse) {
  constexpr int kDepth = 500;
  std::string text;
  for (int i = 0; i < kDepth; ++i) text += "{\"k\":";
  text += "true";
  text.append(kDepth, '}');
  const JsonValue doc = parse_json(text);
  const JsonValue* v = &doc;
  for (int i = 0; i < kDepth; ++i) v = &v->at("k");
  EXPECT_TRUE(v->as_bool());
}

TEST(JsonParseTest, NestingBeyondTheCapThrows) {
  // 100,000 levels used to recurse off the end of the stack (SIGSEGV).
  EXPECT_THROW(parse_json(std::string(100000, '[')), std::invalid_argument);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"k\":";
  EXPECT_THROW(parse_json(objects), std::invalid_argument);
  // The cap itself: kMaxJsonDepth levels parse, one more does not.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(parse_json(nested(kMaxJsonDepth)));
  EXPECT_THROW(parse_json(nested(kMaxJsonDepth + 1)), std::invalid_argument);
  EXPECT_THROW(parse_json("{\"a\":" + nested(kMaxJsonDepth) + "}"),
               std::invalid_argument);
}

TEST(JsonParseTest, NumbersParseViaFromChars) {
  EXPECT_DOUBLE_EQ(parse_json("1e308").as_number(), 1e308);
  EXPECT_DOUBLE_EQ(parse_json("5e-324").as_number(), 5e-324);
  EXPECT_DOUBLE_EQ(parse_json("-0.0").as_number(), 0.0);
  EXPECT_TRUE(std::signbit(parse_json("-0.0").as_number()));
  EXPECT_THROW(parse_json("1e"), std::invalid_argument);
  EXPECT_THROW(parse_json("--1"), std::invalid_argument);
}

TEST(JsonParseTest, TrailingGarbageThrows) {
  EXPECT_THROW(parse_json("{} x"), std::invalid_argument);
  EXPECT_THROW(parse_json("1 2"), std::invalid_argument);
}

}  // namespace
}  // namespace mmog::obs
