#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <limits>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/jsonio.hpp"

namespace mmog::obs {

// One field list per persisted record: a function template in the record's
// namespace (found by argument-dependent lookup) that names each member
// once, in on-disk order, e.g. `void fields(auto& v, Of<AuditOffer> auto&
// o) { v("dc", o.dc); ... }`. FieldWriter, FieldReader and FieldLister all
// walk it. A list may also call v.optional(key, member) (absent on read:
// left as it is), v.tag(key, value) (a constant the reader requires),
// v.write_only(key, value) and v.group(key, fn) (a nested object of more
// members, listed by fn). A record stored as a positional array lists its
// cells with `cells(v, record)`, calling `v(value)` per cell.

/// The record type with or without const: one list serves every visitor.
template <class T, class R>
concept Of = std::same_as<std::remove_const_t<T>, R>;

template <class T>
concept Text = std::is_convertible_v<const T&, std::string_view>;

template <class E>
struct EnumName {
  E value;
  std::string_view name;
};

/// An enum member stored by name; `names` lists every accepted value.
template <class T>
struct ByName {
  T& value;
  std::span<const EnumName<std::remove_const_t<T>>> names;
};

template <class T, std::size_t N>
ByName<T> by_name(T& value,
                  const EnumName<std::remove_const_t<T>> (&names)[N]) {
  return {value, names};
}

/// A step that may be the never sentinel (the type's maximum), stored as
/// -1 because SIZE_MAX does not survive a JSON double.
template <class T>
struct OrNever {
  using Step = std::remove_const_t<T>;
  static constexpr Step kNever = std::numeric_limits<Step>::max();
  T& value;
};

template <class T>
OrNever<T> or_never(T& value) {
  return {value};
}

/// Appends records as JSON. Field keys are written verbatim (field lists
/// spell plain ASCII); string values and map keys are escaped.
class FieldWriter {
 public:
  explicit FieldWriter(std::string& out) : out_(out) {}

  template <class T>
  void operator()(std::string_view key, const T& value) {
    member(key);
    put(value);
  }

  /// One positional cell, or a whole top-level value.
  template <class T>
  void operator()(const T& value) {
    separate();
    put(value);
  }

  template <class T>
  void optional(std::string_view key, const T& value) { (*this)(key, value); }

  template <class T>
  void tag(std::string_view key, const T& value) { (*this)(key, value); }

  template <class T>
  void write_only(std::string_view key, const T& value) { (*this)(key, value); }

  template <class Fn>
  void group(std::string_view key, Fn&& list) {
    member(key);
    nest('{', '}', [&] { list(*this); });
  }

 private:
  void separate() {
    if (!first_) out_ += ',';
    first_ = false;
  }

  void member(std::string_view key) {
    separate();
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  template <class Fn>
  void nest(char open, char close, Fn&& body) {
    out_ += open;
    first_ = true;
    body();
    out_ += close;
    first_ = false;
  }

  template <class T>
  void put(const T& value) {
    if constexpr (std::is_floating_point_v<T>) {
      append_json_double(out_, value);
    } else if constexpr (std::is_integral_v<T>) {
      char buf[24];
      const char* end = std::to_chars(buf, buf + sizeof buf, value).ptr;
      out_.append(buf, static_cast<std::size_t>(end - buf));
    } else if constexpr (Text<T>) {
      out_ += '"';
      append_json_escaped(out_, value);
      out_ += '"';
    } else if constexpr (requires { T::kNever; }) {
      if (value.value == T::kNever) {
        out_ += "-1";
      } else {
        put(value.value);
      }
    } else if constexpr (requires { value.names; }) {
      std::string_view name = "unknown";
      for (const auto& entry : value.names) {
        if (entry.value == value.value) name = entry.name;
      }
      put(name);
    } else if constexpr (requires { typename T::mapped_type; }) {
      nest('{', '}', [&] {
        for (const auto& [key, item] : value) {
          separate();
          put(key);
          out_ += ':';
          put(item);
        }
      });
    } else if constexpr (std::ranges::range<T>) {
      nest('[', ']', [&] {
        for (const auto& item : value) (*this)(item);
      });
    } else if constexpr (requires { cells(*this, value); }) {
      nest('[', ']', [&] { cells(*this, value); });
    } else {
      nest('{', '}', [&] { fields(*this, value); });
    }
  }

  std::string& out_;
  bool first_ = true;
};

/// Fills a record from a parsed JSON object. Each value must have its
/// member's type; an integer must be integral and fit its member (or_never
/// also takes -1). Anything else throws `Error` naming the document and the
/// key, so each record keeps its own documented exception.
template <class Error>
class FieldReader {
 public:
  FieldReader(const JsonValue& object, std::string_view where)
      : FieldReader(object, where, {}, JsonValue::Kind::kObject) {}

  template <class T>
  void operator()(std::string_view key, T&& value) {
    get(require(key), value, key);
  }

  /// The next positional cell.
  template <class T>
  void operator()(T&& value) {
    const auto& cells = node_.as_array();
    if (next_ == cells.size()) fail(key_, "too few cells");
    get(cells[next_++], value, key_);
  }

  template <class T>
  void optional(std::string_view key, T&& value) {
    if (node_.find(key) != nullptr) (*this)(key, value);
  }

  template <class T>
  void tag(std::string_view key, const T& expected) {
    std::conditional_t<Text<T>, std::string, T> got{};
    (*this)(key, got);
    if (got != expected) fail(key, "unexpected value");
  }

  template <class T>
  void write_only(std::string_view, const T&) {}

  template <class Fn>
  void group(std::string_view key, Fn&& list) {
    FieldReader nested(require(key), where_, key, JsonValue::Kind::kObject);
    list(nested);
  }

 private:
  FieldReader(const JsonValue& node, std::string_view where,
              std::string_view key, JsonValue::Kind kind)
      : node_(node), where_(where), key_(key) {
    expect(node, kind, key);
  }

  [[noreturn]] void fail(std::string_view key, const std::string& what) const {
    std::string message(where_);
    if (!key.empty()) message += ": " + std::string(key);
    throw Error(message + ": " + what);
  }

  const JsonValue& expect(const JsonValue& json, JsonValue::Kind kind,
                          std::string_view key) const {
    if (json.kind() != kind) fail(key, "has the wrong JSON type");
    return json;
  }

  const JsonValue& require(std::string_view key) const {
    if (const JsonValue* json = node_.find(key)) return *json;
    fail(key, "missing");
  }

  double number(const JsonValue& json, std::string_view key) const {
    return expect(json, JsonValue::Kind::kNumber, key).as_number();
  }

  template <class T>
  T integer(const JsonValue& json, std::string_view key) const {
    using Limits = std::numeric_limits<T>;
    // [min, max + 1) is exact in a double for every integer width, and the
    // test rejects NaN too, so the cast below is always defined.
    constexpr double kLow = static_cast<double>(Limits::min());
    constexpr double kHigh = static_cast<double>(Limits::max()) + 1.0;
    const double d = number(json, key);
    if (!(d >= kLow && d < kHigh) || d != std::floor(d)) {
      fail(key, json_double(d) + " is not an integer in [" +
                    std::to_string(Limits::min()) + ", " +
                    std::to_string(Limits::max()) + "]");
    }
    return static_cast<T>(d);
  }

  template <class T>
  void get(const JsonValue& json, T&& out, std::string_view key) {
    using U = std::remove_cvref_t<T>;
    if constexpr (std::is_floating_point_v<U>) {
      out = number(json, key);
    } else if constexpr (std::is_integral_v<U>) {
      out = integer<U>(json, key);
    } else if constexpr (std::is_same_v<U, std::string>) {
      out = expect(json, JsonValue::Kind::kString, key).as_string();
    } else if constexpr (requires { U::kNever; }) {
      out.value = number(json, key) == -1.0
                      ? U::kNever
                      : integer<typename U::Step>(json, key);
    } else if constexpr (requires { out.names; }) {
      std::string name;
      get(json, name, key);
      for (const auto& entry : out.names) {
        if (entry.name == name) {
          out.value = entry.value;
          return;
        }
      }
      fail(key, "unknown name \"" + name + "\"");
    } else if constexpr (requires { typename U::mapped_type; }) {
      const JsonValue& object = expect(json, JsonValue::Kind::kObject, key);
      for (const auto& [name, item] : object.members()) {
        get(item, out[name], name);
      }
    } else if constexpr (std::ranges::range<U>) {
      const auto& items = expect(json, JsonValue::Kind::kArray, key).as_array();
      if constexpr (requires { out.resize(0); }) {
        out.resize(items.size());
      } else if (items.size() != out.size()) {
        fail(key, "expected " + std::to_string(out.size()) + " elements");
      }
      for (std::size_t i = 0; i < items.size(); ++i) get(items[i], out[i], key);
    } else if constexpr (requires { cells(*this, out); }) {
      FieldReader row(json, where_, key, JsonValue::Kind::kArray);
      cells(row, out);
      if (row.next_ != json.as_array().size()) fail(key, "too many cells");
    } else {
      FieldReader nested(json, where_, key, JsonValue::Kind::kObject);
      fields(nested, out);
    }
  }

  const JsonValue& node_;
  std::string_view where_;  ///< the document, for error messages
  std::string_view key_;    ///< this object's or row's own key
  std::size_t next_ = 0;    ///< the next positional cell
};

/// A record's scalar members, through nested records and groups, as dotted
/// paths ("outcome.sla.steps") and their JSON text; maps and arrays are
/// left to the record's owner.
struct FieldLister {
  using Leaves = std::vector<std::pair<std::string, std::string>>;

  template <class T>
  void operator()(std::string_view key, const T& value) {
    if constexpr (std::is_arithmetic_v<T> || Text<T>) {
      std::string text;
      FieldWriter writer(text);
      writer(value);
      // JSON writes non-finite numbers as 0; a diff must still tell them.
      if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value)) text = std::to_string(value);
      }
      leaves.emplace_back(path(key), std::move(text));
    } else if constexpr (requires { fields(*this, value); }) {
      group(key, [&](auto& nested) { fields(nested, value); });
    }
  }

  template <class T>
  void optional(std::string_view key, const T& value) { (*this)(key, value); }

  template <class T>
  void tag(std::string_view, const T&) {}

  template <class T>
  void write_only(std::string_view, const T&) {}

  template <class Fn>
  void group(std::string_view key, Fn&& list) {
    FieldLister nested{leaves, path(key)};
    list(nested);
  }

  std::string path(std::string_view key) const {
    return prefix + '.' + std::string(key);
  }

  Leaves& leaves;
  std::string prefix;
};

/// Notes "<prefix>.<path>: a != b" for each scalar member whose text
/// differs between two records, in field-list order; returns whether none
/// did.
template <class R>
bool diff_fields(const R& a, const R& b, const std::string& prefix,
                 std::vector<std::string>& notes) {
  FieldLister::Leaves leaves_a;
  FieldLister::Leaves leaves_b;
  FieldLister list_a{leaves_a, prefix};
  FieldLister list_b{leaves_b, prefix};
  fields(list_a, a);
  fields(list_b, b);
  bool same = true;
  for (std::size_t i = 0; i < leaves_a.size(); ++i) {
    if (leaves_a[i].second == leaves_b[i].second) continue;
    same = false;
    notes.push_back(leaves_a[i].first + ": " + leaves_a[i].second + " != " +
                    leaves_b[i].second);
  }
  return same;
}

}  // namespace mmog::obs
