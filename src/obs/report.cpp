#include "obs/report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "obs/fields.hpp"
#include "obs/jsonio.hpp"

namespace mmog::obs {
namespace {

std::uint64_t fnv1a64(std::string_view data, std::uint64_t hash) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kPrime;
  }
  return hash;
}

std::string format_line(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

std::string format_line(const char* fmt, ...) {
  char buf[160];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// Notes every key only one map holds and every value that differs, as
/// "<label><key>: ..."; returns whether the maps are equal. `show(value,
/// in_comparison)` renders a value.
template <class Map, class Show>
bool diff_map(std::vector<std::string>& notes, const std::string& label,
              const Map& a, const Map& b, Show show) {
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if (it == b.end()) {
      notes.push_back(label + key + ": only in first (" + show(value, false) +
                      ")");
    } else if (it->second != value) {
      notes.push_back(label + key + ": " + show(value, true) + " != " +
                      show(it->second, true));
    }
  }
  for (const auto& [key, value] : b) {
    if (!a.contains(key)) {
      notes.push_back(label + key + ": only in second (" +
                      show(value, false) + ")");
    }
  }
  return a == b;
}

}  // namespace

std::string RunReport::fingerprint() const {
  std::uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  for (const auto& [key, value] : config) {
    hash = fnv1a64(key, hash);
    hash = fnv1a64("=", hash);
    hash = fnv1a64(value, hash);
    hash = fnv1a64("\n", hash);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// The report's field list (obs/fields.hpp): to_json, parse and the outcome
// comparison in diff_reports all walk it.
void fields(auto& v, Of<RunReport::Outcome> auto& o) {
  v("steps", o.steps);
  v("over_allocation_pct", o.over_allocation_pct);
  v("under_allocation_pct", o.under_allocation_pct);
  v("significant_events", o.significant_events);
  v("unplaced_cpu_unit_steps", o.unplaced_cpu_unit_steps);
  v("total_cost", o.total_cost);
  v("fault_windows", o.fault_windows);
  v.group("sla", [&](auto& sla) {
    sla("availability_pct", o.availability_pct);
    sla("steps", o.sla_steps);
    sla("downtime_steps", o.downtime_steps);
    sla("shed_steps", o.shed_steps);
    sla("breach_episodes", o.breach_episodes);
    sla("longest_breach_steps", o.longest_breach_steps);
    sla("recoveries", o.recoveries);
    sla("mean_time_to_recover_steps", o.mean_time_to_recover_steps);
    sla("max_time_to_recover_steps", o.max_time_to_recover_steps);
  });
  v.group("alerts", [&](auto& alerts) {
    alerts("fired", o.alerts_fired);
    alerts("resolved", o.alerts_resolved);
    alerts("firing", o.alerts_firing);
  });
  v("audit_records", o.audit_records);
  v("counters", o.counters);
}

void fields(auto& v, Of<RunReport::PhaseStats> auto& phase) {
  v("name", phase.name);
  v("count", phase.count);
  v("mean_us", phase.mean_us);
  v("p50_us", phase.p50_us);
  v("p90_us", phase.p90_us);
  v("p99_us", phase.p99_us);
  v("max_us", phase.max_us);
  // Additive schema-1 fields: reports written before the profiler existed
  // parse with the zero default.
  v.optional("allocs_mean", phase.allocs_mean);
  v.optional("alloc_bytes_mean", phase.alloc_bytes_mean);
}

void fields(auto& v, Of<RunReport> auto& report) {
  v.tag("schema", RunReport::kSchemaVersion);
  v("tool", report.tool);
  v("label", report.label);
  v("config", report.config);
  v.write_only("fingerprint", report.fingerprint());
  v("outcome", report.outcome);
  v.group("timing", [&](auto& timing) {
    timing("threads", report.threads);
    timing("wall_seconds", report.wall_seconds);
    timing("peak_rss_kb", report.peak_rss_kb);
    timing.optional("steps_per_sec", report.steps_per_sec);
    timing("phases", report.phases);
  });
}

std::string RunReport::to_json() const {
  std::string out;
  out.reserve(2048);
  FieldWriter writer(out);
  writer(*this);
  return out;
}

std::string RunReport::summary_text() const {
  std::string out;
  out += format_line("steps                  %llu\n",
                     static_cast<unsigned long long>(outcome.steps));
  out += format_line("CPU over-allocation    %.2f %%\n",
                     outcome.over_allocation_pct);
  out += format_line("CPU under-allocation   %.3f %%\n",
                     outcome.under_allocation_pct);
  out += format_line(
      "|Υ|>1%% events          %llu\n",
      static_cast<unsigned long long>(outcome.significant_events));
  out += format_line("unplaced CPU unit-steps %.1f\n",
                     outcome.unplaced_cpu_unit_steps);
  out += format_line("renting cost           %.1f\n", outcome.total_cost);
  // The SLA outcome matters whenever a breach (or fault exposure) actually
  // happened, not only on fault-injection runs.
  if (outcome.fault_windows > 0 || outcome.breach_episodes > 0 ||
      outcome.downtime_steps > 0) {
    out += "\nFault injection / SLA:\n";
    out += format_line("  fault windows        %llu\n",
                       static_cast<unsigned long long>(outcome.fault_windows));
    out += format_line("  availability         %.3f %%\n",
                       outcome.availability_pct);
    out += format_line(
        "  downtime steps       %llu / %llu\n",
        static_cast<unsigned long long>(outcome.downtime_steps),
        static_cast<unsigned long long>(outcome.sla_steps));
    out += format_line(
        "  breach episodes      %llu (longest %llu steps)\n",
        static_cast<unsigned long long>(outcome.breach_episodes),
        static_cast<unsigned long long>(outcome.longest_breach_steps));
    if (outcome.recoveries > 0) {
      out += format_line(
          "  time to recover      mean %.1f / max %llu steps\n",
          outcome.mean_time_to_recover_steps,
          static_cast<unsigned long long>(
              outcome.max_time_to_recover_steps));
    }
  }
  return out;
}

namespace {

RunReport read_report(const JsonValue& doc) {
  RunReport report;
  FieldReader<std::invalid_argument> reader(doc, "report");
  fields(reader, report);
  return report;
}

}  // namespace

RunReport RunReport::parse(std::string_view json) {
  return read_report(parse_json(json));
}

std::vector<RunReport> parse_report_file(std::string_view json) {
  const JsonValue doc = parse_json(json);
  if (doc.kind() == JsonValue::Kind::kObject) return {read_report(doc)};
  if (doc.kind() != JsonValue::Kind::kArray) {
    throw std::invalid_argument("report: expected an object or array");
  }
  std::vector<RunReport> reports;
  for (const JsonValue& item : doc.as_array()) {
    reports.push_back(read_report(item));
  }
  return reports;
}

std::string reports_to_json(const std::vector<RunReport>& reports) {
  std::string out = "[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i) out += ",\n ";
    out += reports[i].to_json();
  }
  out += "]\n";
  return out;
}

DiffResult diff_reports(const RunReport& a, const RunReport& b,
                        double timing_tolerance_pct) {
  DiffResult result;
  auto& notes = result.notes;
  bool same = diff_map(notes, "config.", a.config, b.config,
                       [](const std::string& v, bool quoted) {
                         return quoted ? '"' + v + '"' : v;
                       });
  same = diff_fields(a.outcome, b.outcome, "outcome", notes) && same;
  same = diff_map(notes, "counter ", a.outcome.counters, b.outcome.counters,
                  [](double v, bool) { return json_double(v); }) &&
         same;
  result.outcome_identical = same;
  if (timing_tolerance_pct >= 0.0) {
    for (const auto& pa : a.phases) {
      const RunReport::PhaseStats* pb = nullptr;
      for (const auto& candidate : b.phases) {
        if (candidate.name == pa.name) {
          pb = &candidate;
          break;
        }
      }
      if (pb == nullptr) {
        notes.push_back("timing: phase " + pa.name + " only in first");
        continue;
      }
      const double base = pa.p50_us;
      const double delta = std::fabs(pb->p50_us - base);
      const double rel_pct = base > 0.0 ? 100.0 * delta / base
                             : (delta > 0.0 ? 100.0 : 0.0);
      if (rel_pct > timing_tolerance_pct) {
        result.timing_ok = false;
        notes.push_back(format_line(
            "timing: phase %s p50 %.1f us -> %.1f us (%.1f %% > %.1f %% "
            "tolerance)",
            pa.name.c_str(), base, pb->p50_us, rel_pct,
            timing_tolerance_pct));
      }
    }
  }
  return result;
}

DiffResult diff_audits(const std::vector<AuditRecord>& a,
                       const std::vector<AuditRecord>& b,
                       std::size_t max_notes) {
  DiffResult result;
  if (a.size() != b.size()) {
    result.outcome_identical = false;
    result.notes.push_back("audit: record count " + std::to_string(a.size()) +
                           " != " + std::to_string(b.size()));
  }
  const std::size_t common = a.size() < b.size() ? a.size() : b.size();
  std::size_t reported = 0;
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] == b[i]) continue;
    result.outcome_identical = false;
    if (reported++ >= max_notes) continue;
    result.notes.push_back(
        "audit: record " + std::to_string(i) + " (step " +
        std::to_string(a[i].step) + ", game " + std::to_string(a[i].game) +
        ", region " + a[i].region + ") differs:\n  first:  " +
        audit_record_to_json(a[i]) + "\n  second: " +
        audit_record_to_json(b[i]));
  }
  if (reported > max_notes) {
    result.notes.push_back("audit: ... and " +
                           std::to_string(reported - max_notes) +
                           " more differing records");
  }
  return result;
}

std::uint64_t current_peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss > 0 ? static_cast<std::uint64_t>(usage.ru_maxrss)
                             : 0;
}

}  // namespace mmog::obs
