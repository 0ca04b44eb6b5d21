#include "obs/alert_parse.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/checked_count.hpp"
#include "util/duration.hpp"

namespace mmog::obs {
namespace {

double parse_number(std::string_view text, std::string_view what) {
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size()) {
    throw std::invalid_argument("alert spec: malformed " + std::string(what) +
                                " '" + s + "'");
  }
  return v;
}

AlertOp parse_op(std::string_view text) {
  if (text == ">") return AlertOp::kGt;
  if (text == "<") return AlertOp::kLt;
  if (text == ">=") return AlertOp::kGe;
  if (text == "<=") return AlertOp::kLe;
  if (text == "==") return AlertOp::kEq;
  if (text == "!=") return AlertOp::kNe;
  throw std::invalid_argument("alert spec: unknown op '" + std::string(text) +
                              "' (expected > < >= <= == !=)");
}

}  // namespace

AlertRule parse_alert_rule(std::string_view text) {
  const auto colon = text.find(':');
  if (colon == std::string_view::npos || colon == 0) {
    throw std::invalid_argument(
        "alert spec: expected 'name:key=value,...', got '" +
        std::string(text) + "'");
  }
  AlertRule rule;
  rule.name = std::string(text.substr(0, colon));

  bool have_metric = false;
  bool have_value = false;
  auto rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const auto token = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("alert spec: expected key=value, got '" +
                                  std::string(token) + "'");
    }
    const auto key = token.substr(0, eq);
    const auto value = token.substr(eq + 1);
    if (key == "metric") {
      if (value.empty()) {
        throw std::invalid_argument("alert spec: empty metric name");
      }
      rule.metric = std::string(value);
      have_metric = true;
    } else if (key == "op") {
      rule.op = parse_op(value);
    } else if (key == "value") {
      rule.value = parse_number(value, "value");
      have_value = true;
    } else if (key == "for") {
      // The debounce is whole steps: a fractional duration rounds down.
      rule.for_steps = util::checked_count(
          std::trunc(util::parse_duration_steps(value, /*allow_zero=*/true,
                                                "alert spec")),
          "alert spec: for");
    } else {
      throw std::invalid_argument("alert spec: unknown key '" +
                                  std::string(key) + "'");
    }
  }
  if (!have_metric) {
    throw std::invalid_argument("alert spec: missing metric=NAME");
  }
  if (!have_value) {
    throw std::invalid_argument("alert spec: missing value=F");
  }
  return rule;
}

std::vector<AlertRule> parse_alert_rules(std::string_view text) {
  std::vector<AlertRule> rules;
  while (!text.empty()) {
    const auto semi = text.find(';');
    const auto part = text.substr(0, semi);
    text = semi == std::string_view::npos ? std::string_view{}
                                          : text.substr(semi + 1);
    if (!part.empty()) rules.push_back(parse_alert_rule(part));
  }
  return rules;
}

std::string describe(const AlertRule& rule) {
  char value[64];
  std::snprintf(value, sizeof value, "%g", rule.value);
  std::string out = rule.name + ":metric=" + rule.metric +
                    ",op=" + std::string(alert_op_name(rule.op)) +
                    ",value=" + value;
  if (rule.for_steps > 0) {
    out += ",for=" + std::to_string(rule.for_steps);
  }
  return out;
}

}  // namespace mmog::obs
