#include "ckpt/checkpoint.hpp"

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/audit.hpp"
#include "obs/fields.hpp"
#include "obs/jsonio.hpp"
#include "util/atomic_file.hpp"

// The checkpointed records' field lists, in on-disk order
// (obs/fields.hpp). Each lives in its record's namespace, where the codec
// finds it by argument-dependent lookup.

namespace mmog::fault {
namespace {

constexpr obs::EnumName<FaultKind> kKindNames[] = {
    {FaultKind::kOutage, "outage"},
    {FaultKind::kCapacityLoss, "capacity"},
    {FaultKind::kLatencyDegradation, "latency"},
    {FaultKind::kGrantFlap, "flap"},
};

}  // namespace

void fields(auto& v, obs::Of<FaultEvent> auto& event) {
  v("kind", obs::by_name(event.kind, kKindNames));
  v("dc", event.dc_index);
  v("from", event.from_step);
  v("to", event.to_step);
  v("severity", event.severity);
}

void fields(auto& v, obs::Of<BackoffTracker::EntryView> auto& entry) {
  v("dc", entry.dc);
  v("failures", entry.failures);
  v("until", entry.until);
}

}  // namespace mmog::fault

namespace mmog::dc {

void fields(auto& v, obs::Of<Allocation> auto& alloc) {
  v("id", alloc.id);
  v("dc", alloc.dc_index);
  v("game", alloc.game_id);
  v("group", alloc.group_id);
  v("region_id", alloc.region_id);
  v("amount", alloc.amount.v);
  v("start", alloc.start_step);
  v("usable", alloc.usable_step);
  v("release", obs::or_never(alloc.earliest_release_step));
}

}  // namespace mmog::dc

namespace mmog::core {

void fields(auto& v, obs::Of<GroupCheckpoint> auto& group) {
  v("predictor", group.predictor);
  v("state", group.state);
  v("last_prediction", group.last_prediction);
  v("abs_error_ewma", group.abs_error_ewma);
}

void fields(auto& v, obs::Of<UnitCheckpoint> auto& unit) {
  v("game", unit.game_id);
  v("region", unit.region);
  v("allocated", unit.allocated.v);
  v("allocations", unit.allocations);
  v("backoff", unit.backoff);
  v("groups", unit.groups);
}

void fields(auto& v, obs::Of<LedgerCheckpoint> auto& ledger) {
  v("in_use", ledger.in_use.v);
  v("capacity_fraction", ledger.capacity_fraction);
  v("cpu_sum", ledger.cpu_sum);
  v("cpu_peak", ledger.cpu_peak);
  v("origin_sum", ledger.origin_sum);
}

void fields(auto& v, obs::Of<SlaStats> auto& stats) {
  v("steps", stats.steps);
  v("downtime_steps", stats.downtime_steps);
  v("shed_steps", stats.shed_steps);
  v("breach_episodes", stats.breach_episodes);
  v("recoveries", stats.recoveries);
  v("longest_breach_steps", stats.longest_breach_steps);
  v("mean_time_to_recover_steps", stats.mean_time_to_recover_steps);
  v("max_time_to_recover_steps", stats.max_time_to_recover_steps);
}

void fields(auto& v, obs::Of<SlaTracker::State> auto& sla) {
  v("stats", sla.stats);
  v("streak", sla.streak);
  v("recovered_steps_sum", sla.recovered_steps_sum);
}

/// A metrics row is positional: allocated, used and shortfall (every
/// resource kind each), then the machine count.
void cells(auto& v, obs::Of<StepMetrics> auto& row) {
  for (auto& x : row.allocated.v) v(x);
  for (auto& x : row.used.v) v(x);
  for (auto& x : row.shortfall.v) v(x);
  v(row.machines);
}

}  // namespace mmog::core

namespace mmog::ckpt {
namespace {

[[noreturn]] void bad(const std::string& what) {
  throw CheckpointError("checkpoint: " + what);
}

std::string hash_hex(std::uint64_t h) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[h & 0xF];
    h >>= 4;
  }
  return out;
}

/// Sequential cursor over the file's lines; every section is demanded in
/// its fixed position so a reordered or truncated file fails loudly.
class LineCursor {
 public:
  LineCursor(std::string_view text, std::size_t end)
      : text_(text), end_(end) {}

  bool done() const noexcept { return pos_ >= end_; }
  std::size_t line_number() const noexcept { return line_; }

  obs::JsonValue next(const char* expected) {
    if (done()) {
      bad(std::string("truncated: expected ") + expected +
          " after line " + std::to_string(line_));
    }
    const std::size_t eol = text_.find('\n', pos_);
    const std::size_t stop = eol == std::string_view::npos
                                 ? end_
                                 : std::min(eol, end_);
    const std::string_view raw = text_.substr(pos_, stop - pos_);
    pos_ = eol == std::string_view::npos ? end_ : stop + 1;
    ++line_;
    try {
      return obs::parse_json(raw);
    } catch (const std::invalid_argument& e) {
      bad("line " + std::to_string(line_) + " (" + expected +
          "): " + e.what());
    }
  }

 private:
  std::string_view text_;
  std::size_t end_ = 0;
  std::size_t pos_ = 0;
  std::size_t line_ = 0;
};

/// Serializes the layout, one JSON object per line.
class LineWriter {
 public:
  explicit LineWriter(std::string& out) : out_(out) {}

  template <class Fn>
  void line(Fn&& list) {
    out_ += '{';
    obs::FieldWriter writer(out_);
    list(writer);
    out_ += "}\n";
  }

  template <class T, class Fn>
  void each(const std::vector<T>& items, std::size_t /*count*/, Fn&& body) {
    for (std::size_t i = 0; i < items.size(); ++i) body(items[i], i);
  }

 private:
  std::string& out_;
};

/// Parses the layout back through a LineCursor. obs::FieldReader checks
/// every value, so any malformed one is a CheckpointError naming its line
/// and key.
class LineReader {
 public:
  explicit LineReader(LineCursor& cursor) : cur_(cursor) {}

  template <class Fn>
  void line(Fn&& list) {
    const obs::JsonValue line = cur_.next("another line");
    char where[48];
    std::snprintf(where, sizeof where, "checkpoint: line %zu",
                  cur_.line_number());
    obs::FieldReader<CheckpointError> reader(line, where);
    list(reader);
  }

  template <class T, class Fn>
  void each(std::vector<T>& items, std::size_t count, Fn&& body) {
    for (std::size_t i = 0; i < count; ++i) body(items.emplace_back(), i);
  }

 private:
  LineCursor& cur_;
};

/// The file's lines in order, walked by LineWriter to serialize and by
/// LineReader to parse: the header, then one line per section (extras, sim
/// scalars, fault events, ledgers, each unit, global then per-game metrics
/// and SLA, counters, audit) and the audit prefix's records. The counts in
/// the header and the audit line say how many lines follow.
template <class Lines, class File>
void layout(Lines& lines, File& file) {
  auto& st = file.state;
  std::size_t units = st.units.size();
  std::size_t games = st.game_step_metrics.size();
  std::size_t audit = st.audit_records.size();
  const auto section = [&](const char* name, const auto& list) {
    lines.line([&](auto& v) {
      v.tag("section", name);
      list(v);
    });
  };
  lines.line([&](auto& v) {
    v.tag("magic", kMagic);
    v.tag("version", kFormatVersion);
    v("next_step", st.next_step);
    v("steps", st.steps);
    v("units", units);
    v("games", games);
  });
  section("extras", [&](auto& v) { v("data", file.extras); });
  section("sim", [&](auto& v) {
    v("next_allocation_id", st.next_allocation_id);
    v("unplaced_cpu_unit_steps", st.unplaced_cpu_unit_steps);
    v("total_cost", st.total_cost);
  });
  section("faults", [&](auto& v) { v("events", st.fault_events); });
  section("ledgers", [&](auto& v) { v("items", st.ledgers); });
  lines.each(st.units, units, [&](auto& unit, std::size_t i) {
    section("unit", [&](auto& v) {
      v.tag("index", i);
      fields(v, unit);
    });
  });
  const auto scoped = [&](const char* name, auto& global, auto& per_game,
                          const auto& list) {
    section(name, [&](auto& v) {
      v.tag("scope", "global");
      list(v, global);
    });
    lines.each(per_game, games, [&](auto& game, std::size_t g) {
      section(name, [&](auto& v) {
        v.tag("scope", "game");
        v.tag("index", g);
        list(v, game);
      });
    });
  };
  scoped("metrics", st.step_metrics, st.game_step_metrics,
         [](auto& v, auto& rows) { v("rows", rows); });
  scoped("sla", st.overall_sla, st.game_sla,
         [](auto& v, auto& sla) { fields(v, sla); });
  section("counters", [&](auto& v) { v("data", st.counters); });
  section("audit", [&](auto& v) { v("count", audit); });
  lines.each(st.audit_records, audit, [&](auto& record, std::size_t) {
    lines.line([&](auto& v) { fields(v, record); });
  });
}

/// The footer line: the checksum kind and the FNV-1a 64 (hex) of every
/// byte before it.
void footer(auto& v, auto& hash) {
  v.tag("footer", "fnv1a64");
  v("hash", hash);
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string to_jsonl(const CheckpointFile& file) {
  std::string out;
  out.reserve(4096);
  LineWriter lines(out);
  layout(lines, file);
  // The footer hashes every byte above, including the last newline.
  const std::string hash = hash_hex(fnv1a64(out));
  lines.line([&](auto& v) { footer(v, hash); });
  return out;
}

CheckpointFile parse_jsonl(std::string_view text) {
  if (text.empty()) bad("empty file");

  // Locate the footer: the last non-empty line. Everything before its
  // first byte is the checksummed region.
  std::size_t end = text.size();
  while (end > 0 && text[end - 1] == '\n') --end;
  if (end == 0) bad("empty file");
  const std::size_t last_nl = text.rfind('\n', end - 1);
  const std::size_t footer_start = last_nl == std::string_view::npos
                                       ? 0
                                       : last_nl + 1;
  if (footer_start == 0) bad("truncated: no footer line");

  std::string want;
  try {
    const obs::JsonValue line =
        obs::parse_json(text.substr(footer_start, end - footer_start));
    obs::FieldReader<CheckpointError> reader(
        line, "checkpoint: footer line (file truncated?)");
    footer(reader, want);
  } catch (const std::invalid_argument&) {
    bad("malformed footer line (file truncated?)");
  }
  const std::string got = hash_hex(fnv1a64(text.substr(0, footer_start)));
  if (want != got) {
    bad("checksum mismatch (file corrupted): footer " + want +
        ", content " + got);
  }

  LineCursor cur(text, footer_start);
  CheckpointFile file;
  LineReader lines(cur);
  layout(lines, file);
  if (!cur.done()) {
    bad("trailing content after the audit section");
  }
  return file;
}

void write_checkpoint_file(const std::string& path,
                           const CheckpointFile& file) {
  util::AtomicFileWriter writer(path);
  writer.stream() << to_jsonl(file);
  writer.commit(/*keep_previous=*/true);
}

namespace {

/// Reads a whole file; returns false (with a note) when it cannot be read.
bool slurp(const std::string& path, std::string& out, std::string& note) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    note = path + ": cannot open";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    note = path + ": read error";
    return false;
  }
  out = buf.str();
  return true;
}

}  // namespace

LoadedCheckpoint load_newest_valid(const std::string& path) {
  LoadedCheckpoint result;
  const std::string candidates[] = {path, path + ".prev"};
  for (const std::string& candidate : candidates) {
    std::string text;
    std::string note;
    if (!slurp(candidate, text, note)) {
      result.notes.push_back(note);
      continue;
    }
    try {
      result.file = parse_jsonl(text);
      result.path = candidate;
      return result;
    } catch (const CheckpointError& e) {
      result.notes.push_back(candidate + ": " + e.what());
    }
  }
  std::string message = "no valid checkpoint at " + path;
  for (const std::string& note : result.notes) {
    message += "; " + note;
  }
  throw CheckpointError(message);
}

// ------------------------------------------------------------------ diff

namespace {

std::string brief(const obs::JsonValue& v) {
  switch (v.kind()) {
    case obs::JsonValue::Kind::kNull:
      return "null";
    case obs::JsonValue::Kind::kBool:
      return v.as_bool() ? "true" : "false";
    case obs::JsonValue::Kind::kNumber:
      return obs::json_double(v.as_number());
    case obs::JsonValue::Kind::kString:
      return "\"" + v.as_string() + "\"";
    case obs::JsonValue::Kind::kArray:
      return "<array of " + std::to_string(v.as_array().size()) + ">";
    case obs::JsonValue::Kind::kObject:
      return "<object of " + std::to_string(v.members().size()) + ">";
  }
  return "?";
}

class Differ {
 public:
  explicit Differ(std::size_t max_notes) : max_notes_(max_notes) {}

  void note(const std::string& text) {
    ++total_;
    if (notes_.size() < max_notes_) notes_.push_back(text);
  }

  void compare(const obs::JsonValue& a, const obs::JsonValue& b,
               const std::string& path) {
    if (a.kind() != b.kind()) {
      note(path + ": " + brief(a) + " vs " + brief(b));
      return;
    }
    switch (a.kind()) {
      case obs::JsonValue::Kind::kNull:
        return;
      case obs::JsonValue::Kind::kBool:
      case obs::JsonValue::Kind::kNumber:
      case obs::JsonValue::Kind::kString: {
        const std::string sa = brief(a);
        const std::string sb = brief(b);
        if (sa != sb) note(path + ": " + sa + " vs " + sb);
        return;
      }
      case obs::JsonValue::Kind::kArray: {
        const auto& va = a.as_array();
        const auto& vb = b.as_array();
        if (va.size() != vb.size()) {
          note(path + ": " + std::to_string(va.size()) + " vs " +
               std::to_string(vb.size()) + " elements");
        }
        const std::size_t n = std::min(va.size(), vb.size());
        for (std::size_t i = 0; i < n; ++i) {
          compare(va[i], vb[i], path + "[" + std::to_string(i) + "]");
        }
        return;
      }
      case obs::JsonValue::Kind::kObject: {
        for (const auto& [key, value] : a.members()) {
          const obs::JsonValue* other = b.find(key);
          if (other == nullptr) {
            note(path + "." + key + ": only in first");
            continue;
          }
          compare(value, *other, path + "." + key);
        }
        for (const auto& [key, value] : b.members()) {
          if (a.find(key) == nullptr) {
            note(path + "." + key + ": only in second");
          }
        }
        return;
      }
    }
  }

  obs::DiffResult finish() {
    obs::DiffResult result;
    if (total_ > notes_.size()) {
      notes_.push_back("... and " + std::to_string(total_ - notes_.size()) +
                       " more differences");
    }
    result.notes = std::move(notes_);
    result.outcome_identical = total_ == 0;
    return result;
  }

 private:
  std::size_t max_notes_;
  std::size_t total_ = 0;
  std::vector<std::string> notes_;
};

/// Section-keyed view of a checkpoint's lines: pairs sections by identity
/// ("unit[3]", "sla.game[1]", "audit[17]") so runs of different shapes
/// still diff meaningfully instead of misaligning every later line.
std::vector<std::pair<std::string, obs::JsonValue>> keyed_lines(
    std::string_view text) {
  std::vector<std::pair<std::string, obs::JsonValue>> out;
  std::size_t end = text.size();
  while (end > 0 && text[end - 1] == '\n') --end;
  const std::size_t last_nl = text.rfind('\n', end - 1);
  const std::size_t footer_start =
      last_nl == std::string_view::npos ? 0 : last_nl + 1;
  LineCursor cur(text, footer_start);
  bool saw_header = false;
  std::size_t audit_index = 0;
  while (!cur.done()) {
    obs::JsonValue v = cur.next("line");
    std::string key;
    const obs::JsonValue* section =
        v.kind() == obs::JsonValue::Kind::kObject ? v.find("section")
                                                  : nullptr;
    if (!saw_header) {
      key = "header";
      saw_header = true;
    } else if (section == nullptr) {
      key = "audit[" + std::to_string(audit_index++) + "]";
    } else {
      key = section->as_string();
      if (const obs::JsonValue* scope = v.find("scope")) {
        key += "." + scope->as_string();
      }
      if (const obs::JsonValue* index = v.find("index")) {
        key += "[" + obs::json_double(index->as_number()) + "]";
      }
    }
    out.emplace_back(std::move(key), std::move(v));
  }
  return out;
}

}  // namespace

obs::DiffResult diff_checkpoints(std::string_view text_a,
                                 std::string_view text_b,
                                 std::size_t max_notes) {
  // Both sides must be intact checkpoints before fields are compared.
  (void)parse_jsonl(text_a);
  (void)parse_jsonl(text_b);

  const auto lines_a = keyed_lines(text_a);
  const auto lines_b = keyed_lines(text_b);
  Differ differ(max_notes);

  std::map<std::string, const obs::JsonValue*> index_b;
  for (const auto& [key, value] : lines_b) index_b.emplace(key, &value);
  std::map<std::string, bool> seen;
  for (const auto& [key, value] : lines_a) {
    seen[key] = true;
    const auto it = index_b.find(key);
    if (it == index_b.end()) {
      differ.note(key + ": only in first");
      continue;
    }
    differ.compare(value, *it->second, key);
  }
  for (const auto& [key, value] : lines_b) {
    if (!seen.contains(key)) differ.note(key + ": only in second");
  }
  return differ.finish();
}

}  // namespace mmog::ckpt
