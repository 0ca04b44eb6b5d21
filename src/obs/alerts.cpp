#include "obs/alerts.hpp"

#include "obs/jsonio.hpp"

namespace mmog::obs {
namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

std::string_view alert_op_name(AlertOp op) noexcept {
  switch (op) {
    case AlertOp::kGt: return ">";
    case AlertOp::kLt: return "<";
    case AlertOp::kGe: return ">=";
    case AlertOp::kLe: return "<=";
    case AlertOp::kEq: return "==";
    case AlertOp::kNe: return "!=";
  }
  return "?";
}

std::string_view alert_state_name(AlertState state) noexcept {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
    case AlertState::kResolved: return "resolved";
  }
  return "?";
}

bool AlertRule::matches(double sample) const noexcept {
  switch (op) {
    case AlertOp::kGt: return sample > value;
    case AlertOp::kLt: return sample < value;
    case AlertOp::kGe: return sample >= value;
    case AlertOp::kLe: return sample <= value;
    case AlertOp::kEq: return sample == value;
    case AlertOp::kNe: return sample != value;
  }
  return false;
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules) {
  statuses_.reserve(rules.size());
  for (auto& rule : rules) {
    AlertStatus status;
    status.rule = std::move(rule);
    statuses_.push_back(std::move(status));
  }
}

std::vector<AlertTransition> AlertEngine::observe(
    std::uint64_t step, const std::vector<Sample>& samples) {
  std::vector<AlertTransition> transitions;
  util::MutexLock lock(mutex_);
  last_step_ = step;
  for (auto& status : statuses_) {
    bool breached = false;
    for (const auto& sample : samples) {
      if (sample.name != status.rule.metric) continue;
      status.last_value = sample.value;
      status.has_value = true;
      breached = status.rule.matches(sample.value);
      break;
    }
    if (breached) {
      if (status.state == AlertState::kInactive ||
          status.state == AlertState::kResolved) {
        status.state = AlertState::kPending;
        status.pending_since_step = step;
      }
      if (status.state == AlertState::kPending &&
          step - status.pending_since_step >= status.rule.for_steps) {
        status.state = AlertState::kFiring;
        status.firing_since_step = step;
        ++status.fired_count;
        transitions.push_back({AlertTransition::Kind::kFired,
                               status.rule.name, status.rule.metric, step,
                               status.last_value});
      }
    } else {
      if (status.state == AlertState::kFiring) {
        status.state = AlertState::kResolved;
        status.last_resolved_step = step;
        ++status.resolved_count;
        transitions.push_back({AlertTransition::Kind::kResolved,
                               status.rule.name, status.rule.metric, step,
                               status.last_value});
      } else if (status.state == AlertState::kPending) {
        // The breach cleared inside the debounce window: never fired.
        status.state = status.resolved_count > 0 ? AlertState::kResolved
                                                 : AlertState::kInactive;
      }
    }
  }
  return transitions;
}

std::size_t AlertEngine::rule_count() const {
  util::MutexLock lock(mutex_);
  return statuses_.size();
}

std::vector<AlertStatus> AlertEngine::statuses() const {
  util::MutexLock lock(mutex_);
  return statuses_;
}

std::size_t AlertEngine::count_in_state(AlertState state) const {
  util::MutexLock lock(mutex_);
  std::size_t n = 0;
  for (const auto& status : statuses_) {
    if (status.state == state) ++n;
  }
  return n;
}

std::string AlertEngine::to_json() const {
  util::MutexLock lock(mutex_);
  std::string out = "{\"step\":" + std::to_string(last_step_);
  out += ",\"alerts\":[";
  bool sep = false;
  for (const auto& status : statuses_) {
    if (sep) out += ',';
    sep = true;
    out += "{\"name\":";
    append_json_string(out, status.rule.name);
    out += ",\"metric\":";
    append_json_string(out, status.rule.metric);
    out += ",\"op\":";
    append_json_string(out, alert_op_name(status.rule.op));
    out += ",\"value\":" + json_number(status.rule.value);
    out += ",\"for_steps\":" + std::to_string(status.rule.for_steps);
    out += ",\"state\":";
    append_json_string(out, alert_state_name(status.state));
    out += ",\"fired_count\":" + std::to_string(status.fired_count);
    out += ",\"resolved_count\":" + std::to_string(status.resolved_count);
    if (status.state == AlertState::kPending ||
        status.state == AlertState::kFiring) {
      out += ",\"pending_since_step\":" +
             std::to_string(status.pending_since_step);
    }
    if (status.state == AlertState::kFiring) {
      out +=
          ",\"firing_since_step\":" + std::to_string(status.firing_since_step);
    }
    if (status.resolved_count > 0) {
      out +=
          ",\"last_resolved_step\":" + std::to_string(status.last_resolved_step);
    }
    if (status.has_value) {
      out += ",\"last_value\":" + json_number(status.last_value);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::vector<AlertRule> default_alert_rules(double event_threshold_pct) {
  std::vector<AlertRule> rules;
  rules.push_back({"underalloc", "core.underalloc_frac", AlertOp::kGt,
                   event_threshold_pct / 100.0, 5});
  rules.push_back({"sla-availability", "sla.availability_min_pct",
                   AlertOp::kLt, 99.0, 10});
  return rules;
}

}  // namespace mmog::obs
