#include "driver/metrics.hpp"

#include <cstring>

#include "obs/jsonio.hpp"

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"group_steps_per_s", "group-steps/s", "higher"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MiB", "lower"},
      {"recovery_ms", "ms", "lower"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"trace.generate_s", "s", "lower"},
      {"trace.read_csv_s", "s", "lower"},
      {"trace.read_csv_peak_mb", "MiB", "lower"},
      {"nn.fit_s", "s", "lower"},
      {"nn.predict_ns", "ns", "lower"},
      {"predict.lastvalue_ns", "ns", "lower"},
      {"core.simulate_s", "s", "lower"},
      {"core.predict_phase_us", "us", "lower"},
      {"core.load_demand_ns", "ns", "lower"},
      {"core.phase.predict_mean_us", "us", "lower"},
      {"core.phase.pad_mean_us", "us", "lower"},
      {"core.phase.match_mean_us", "us", "lower"},
      {"core.phase.match_commit_mean_us", "us", "lower"},
      {"core.phase.account_mean_us", "us", "lower"},
      {"core.phase.step_mean_us", "us", "lower"},
      {"core.phase.replace_share", "ratio", "lower"},
      {"core.allocs_per_step", "count", "lower"},
      {"core.grant_ratio", "ratio", "higher"},
      {"dc.grant_release_ns", "ns", "lower"},
      {"fault.windows", "count", "lower"},
      {"fault.query_ns", "ns", "lower"},
      {"fault.replace_ratio", "ratio", "higher"},
      {"ckpt.count", "count", "lower"},
      {"ckpt.bytes_last", "bytes", "lower"},
      {"ckpt.to_jsonl_ms", "ms", "lower"},
      {"ckpt.share", "ratio", "lower"},
      {"ckpt.load_ms", "ms", "lower"},
      {"ckpt.restore_ms", "ms", "lower"},
      {"ckpt.write_ms", "ms", "lower"},
      {"obs.overhead_ratio", "ratio", "lower"},
      {"obs.count_ns", "ns", "lower"},
      {"obs.observe_us_ns", "ns", "lower"},
      {"obs.audit_records", "count", "lower"},
      {"util.shard_team_run_us", "us", "lower"},
      {"span_overhead_ratio", "ratio", "higher"},
      {"self.trace_s", "s", "lower"},
      {"self.nn_s", "s", "lower"},
      {"self.predict_s", "s", "lower"},
      {"self.core_s", "s", "lower"},
      {"self.dc_s", "s", "lower"},
      {"self.fault_s", "s", "lower"},
      {"self.ckpt_s", "s", "lower"},
      {"self.obs_s", "s", "lower"},
      {"self.util_s", "s", "lower"},
  };
  return defs;
}

namespace {

bool all_of(const char* text, std::size_t max_len, const char* extra) {
  const std::size_t len = std::strlen(text);
  if (len == 0 || len > max_len) return false;
  for (std::size_t i = 0; i < len; ++i) {
    const char ch = text[i];
    const bool alnum = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                       (ch >= '0' && ch <= '9');
    if (!alnum && std::strchr(extra, ch) == nullptr) return false;
  }
  return true;
}

}  // namespace

bool valid_metric(const MetricDef& def) {
  const char first = def.name[0];
  const bool leads = (first >= 'a' && first <= 'z') ||
                     (first >= 'A' && first <= 'Z') ||
                     (first >= '0' && first <= '9');
  const std::string better = def.better;
  return leads && all_of(def.name, 64, "_.-") &&
         all_of(def.unit, 16, "_/%.-") &&
         (better == "higher" || better == "lower");
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    mmog::obs::append_json_escaped(out, metrics[i].name);
    out += "\":{\"value\":" + mmog::obs::json_double(metrics[i].value) +
           ",\"unit\":\"";
    mmog::obs::append_json_escaped(out, metrics[i].unit);
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
