#include "fault/parse.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/checked_count.hpp"
#include "util/duration.hpp"

namespace mmog::fault {
namespace {

double parse_number(std::string_view text, std::string_view what) {
  const std::string s(text);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || s.empty()) {
    throw std::invalid_argument("fault spec: malformed " + std::string(what) +
                                " '" + s + "'");
  }
  return v;
}

FaultKind parse_kind(std::string_view name) {
  if (name == "outage") return FaultKind::kOutage;
  if (name == "capacity") return FaultKind::kCapacityLoss;
  if (name == "latency") return FaultKind::kLatencyDegradation;
  if (name == "flap") return FaultKind::kGrantFlap;
  throw std::invalid_argument("fault spec: unknown kind '" +
                              std::string(name) +
                              "' (expected outage|capacity|latency|flap)");
}

}  // namespace

double parse_duration_steps(std::string_view text, bool allow_zero) {
  return util::parse_duration_steps(text, allow_zero, "fault spec");
}

FaultSpec parse_fault_spec(std::string_view text) {
  const auto colon = text.find(':');
  if (colon == std::string_view::npos) {
    throw std::invalid_argument(
        "fault spec: expected 'kind:key=value,...', got '" +
        std::string(text) + "'");
  }
  FaultSpec spec;
  spec.kind = parse_kind(text.substr(0, colon));
  // Kind-specific severity defaults; overridable via keep/classes/severity.
  spec.severity = spec.kind == FaultKind::kCapacityLoss ? 0.5 : 1.0;

  bool have_dc = false;
  auto rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const auto token = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("fault spec: expected key=value, got '" +
                                  std::string(token) + "'");
    }
    const auto key = token.substr(0, eq);
    const auto value = token.substr(eq + 1);
    if (key == "dc") {
      spec.dc_index =
          util::checked_count(parse_number(value, "dc"), "fault spec: dc");
      have_dc = true;
    } else if (key == "mtbf") {
      spec.mtbf_steps = parse_duration_steps(value);
    } else if (key == "mttr") {
      spec.mttr_steps = parse_duration_steps(value);
    } else if (key == "from") {
      // Window bounds are whole steps: a fractional duration rounds down.
      spec.window_from = util::checked_count(
          std::trunc(parse_duration_steps(value, /*allow_zero=*/true)),
          "fault spec: from");
    } else if (key == "to") {
      spec.window_to = util::checked_count(
          std::trunc(parse_duration_steps(value)), "fault spec: to");
    } else if (key == "seed") {
      spec.seed =
          util::checked_count(parse_number(value, "seed"), "fault spec: seed");
    } else if (key == "dist") {
      if (value == "exp") {
        spec.distribution = FaultDistribution::kExponential;
      } else if (value == "weibull") {
        spec.distribution = FaultDistribution::kWeibull;
      } else {
        throw std::invalid_argument(
            "fault spec: unknown dist '" + std::string(value) +
            "' (expected exp|weibull)");
      }
    } else if (key == "shape") {
      spec.weibull_shape = parse_number(value, "shape");
    } else if (key == "keep" || key == "classes" || key == "severity") {
      spec.severity = parse_number(value, key);
    } else {
      throw std::invalid_argument("fault spec: unknown key '" +
                                  std::string(key) + "'");
    }
  }
  if (!have_dc) {
    throw std::invalid_argument("fault spec: missing dc=N");
  }
  if (!spec.fixed_window() && spec.mtbf_steps <= 0.0 &&
      spec.mttr_steps <= 0.0) {
    throw std::invalid_argument(
        "fault spec: need either mtbf=..,mttr=.. or from=..,to=..");
  }
  return spec;
}

std::vector<FaultSpec> parse_fault_specs(std::string_view text) {
  std::vector<FaultSpec> specs;
  while (!text.empty()) {
    const auto semi = text.find(';');
    const auto part = text.substr(0, semi);
    text = semi == std::string_view::npos ? std::string_view{}
                                          : text.substr(semi + 1);
    if (!part.empty()) specs.push_back(parse_fault_spec(part));
  }
  return specs;
}

std::string describe(const FaultSpec& spec) {
  std::string out(fault_kind_name(spec.kind));
  out += ":dc=" + std::to_string(spec.dc_index);
  if (spec.fixed_window()) {
    out += ",from=" + std::to_string(spec.window_from) +
           ",to=" + std::to_string(spec.window_to);
  } else {
    out += ",mtbf=" + std::to_string(spec.mtbf_steps) +
           ",mttr=" + std::to_string(spec.mttr_steps) +
           ",seed=" + std::to_string(spec.seed);
    if (spec.distribution == FaultDistribution::kWeibull) {
      out += ",dist=weibull,shape=" + std::to_string(spec.weibull_shape);
    }
  }
  if (spec.kind == FaultKind::kCapacityLoss) {
    out += ",keep=" + std::to_string(spec.severity);
  } else if (spec.kind == FaultKind::kLatencyDegradation) {
    out += ",classes=" + std::to_string(static_cast<int>(spec.severity));
  }
  return out;
}

}  // namespace mmog::fault
