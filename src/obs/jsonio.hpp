#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mmog::obs {

/// Appends `s` to `out` with JSON string escaping (quotes, backslash,
/// control bytes as \u00XX).
void append_json_escaped(std::string& out, std::string_view s);

/// Appends the shortest decimal rendering that round-trips the exact
/// double (std::to_chars): equal strings iff equal bits, so serialized
/// values can be compared byte-for-byte without a tolerance. Non-finite
/// values render as 0 (JSON has no Inf/NaN).
void append_json_double(std::string& out, double v);

/// append_json_double into a new string.
inline std::string json_double(double v) {
  std::string out;
  append_json_double(out, v);
  return out;
}

/// 15 significant digits (printf "%.15g"), the number format of the
/// metrics snapshot, trace, alert and time-series exports. Non-finite
/// values render as 0.
std::string json_number(double v);

/// A parsed JSON value: the minimal dynamic representation the audit and
/// report readers need. Object keys keep the document's order alongside a
/// lookup index; numbers are always double (the writers only emit doubles
/// and unsigned integers that fit one).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;

  /// Object member by key; throws std::invalid_argument when absent or not
  /// an object. `find` returns nullptr instead.
  const JsonValue& at(std::string_view key) const;
  const JsonValue* find(std::string_view key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  static JsonValue make_null();
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// How many arrays and objects parse_json lets nest. The repo's records
/// nest a few levels; the parser recurses once per level, so deeper input
/// is rejected instead of overflowing the stack.
inline constexpr std::size_t kMaxJsonDepth = 1000;

/// Parses one JSON document (object, array, or scalar). Strict enough for
/// the repo's own writers plus hand-edited fixtures: throws
/// std::invalid_argument with an offset on malformed input, trailing
/// garbage or nesting deeper than kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

}  // namespace mmog::obs
