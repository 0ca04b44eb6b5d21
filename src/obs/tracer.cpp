#include "obs/tracer.hpp"

#include <cctype>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/fields.hpp"
#include "obs/jsonio.hpp"
#include "util/atomic_file.hpp"

namespace mmog::obs {
namespace {

void append_args_object(std::string& out,
                        const std::vector<TraceArg>& args) {
  out += '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out += ',';
    out += '"';
    append_json_escaped(out, args[i].key);
    out += "\":\"";
    append_json_escaped(out, args[i].value);
    out += '"';
  }
  out += '}';
}

constexpr EnumName<TraceKind> kTraceKindNames[] = {
    {TraceKind::kSpan, "span"},
    {TraceKind::kInstant, "instant"},
};

/// Reads one write_jsonl() line. Every member the writer emits is required
/// and must hold a value of its field's type; args keep document order.
TraceEvent parse_line(std::string_view line) {
  const JsonValue json = parse_json(line);
  FieldReader<std::invalid_argument> v(json, "trace jsonl");
  TraceEvent ev;
  v("seq", ev.seq);
  v("kind", by_name(ev.kind, kTraceKindNames));
  v("name", ev.name);
  v("cat", ev.category);
  v("step", ev.step);
  v("ts_us", ev.ts_us);
  v("dur_us", ev.dur_us);
  for (const auto& [key, value] : json.at("args").members()) {
    ev.args.push_back({key, value.as_string()});
  }
  return ev;
}

}  // namespace

Tracer::Tracer() : start_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void Tracer::instant(std::string_view name, std::string_view category,
                     std::uint64_t step, std::vector<TraceArg> args) {
  const double ts = now_us();
  TraceEvent ev;
  ev.kind = TraceKind::kInstant;
  ev.name = std::string(name);
  ev.category = std::string(category);
  ev.step = step;
  ev.ts_us = ts;
  ev.args = std::move(args);
  util::MutexLock lock(mutex_);
  ev.seq = next_seq_++;
  events_.push_back(std::move(ev));
}

void Tracer::complete_span(std::string_view name, std::string_view category,
                           std::uint64_t step, double ts_us, double dur_us,
                           std::vector<TraceArg> args) {
  TraceEvent ev;
  ev.kind = TraceKind::kSpan;
  ev.name = std::string(name);
  ev.category = std::string(category);
  ev.step = step;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.args = std::move(args);
  util::MutexLock lock(mutex_);
  ev.seq = next_seq_++;
  events_.push_back(std::move(ev));
}

std::size_t Tracer::size() const {
  util::MutexLock lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  util::MutexLock lock(mutex_);
  return events_;
}

void Tracer::write_jsonl(std::ostream& out) const {
  const auto evs = events();
  std::string line;
  for (const auto& ev : evs) {
    line.clear();
    line += "{\"seq\":" + std::to_string(ev.seq);
    line += ",\"kind\":\"";
    line += ev.kind == TraceKind::kSpan ? "span" : "instant";
    line += "\",\"name\":\"";
    append_json_escaped(line, ev.name);
    line += "\",\"cat\":\"";
    append_json_escaped(line, ev.category);
    line += "\",\"step\":" + std::to_string(ev.step);
    line += ",\"ts_us\":" + json_number(ev.ts_us);
    line += ",\"dur_us\":" + json_number(ev.dur_us);
    line += ",\"args\":";
    append_args_object(line, ev.args);
    line += "}\n";
    out << line;
  }
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  const auto evs = events();
  out << "{\"traceEvents\":[";
  std::string item;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const auto& ev = evs[i];
    item.clear();
    if (i) item += ',';
    item += "\n{\"name\":\"";
    append_json_escaped(item, ev.name);
    item += "\",\"cat\":\"";
    append_json_escaped(item, ev.category);
    item += "\",\"ph\":\"";
    item += ev.kind == TraceKind::kSpan ? 'X' : 'i';
    item += "\",\"ts\":" + json_number(ev.ts_us);
    if (ev.kind == TraceKind::kSpan) {
      item += ",\"dur\":" + json_number(ev.dur_us);
    } else {
      item += ",\"s\":\"t\"";
    }
    item += ",\"pid\":0,\"tid\":0,\"args\":";
    std::vector<TraceArg> args = ev.args;
    args.push_back({"step", std::to_string(ev.step)});
    append_args_object(item, args);
    item += '}';
    out << item;
  }
  out << "\n]}\n";
}

std::vector<TraceEvent> read_trace_jsonl(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    bool blank = true;
    for (char c : line) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    events.push_back(parse_line(line));
  }
  return events;
}

TraceFileGuard::TraceFileGuard(const Tracer* tracer, std::string path,
                               Format format)
    : tracer_(tracer), path_(std::move(path)), format_(format) {
  if (tracer_ == nullptr || path_.empty()) done_ = true;
}

TraceFileGuard::~TraceFileGuard() {
  if (done_) return;
  // Unwinding (or the caller forgot to flush): best effort, never throw.
  try {
    write();
  } catch (...) {
  }
}

void TraceFileGuard::flush() {
  if (done_) return;
  write();
  done_ = true;
}

void TraceFileGuard::write() const {
  util::AtomicFileWriter writer(path_);
  if (format_ == Format::kJsonl) {
    tracer_->write_jsonl(writer.stream());
  } else {
    tracer_->write_chrome_trace(writer.stream());
  }
  writer.commit();
}

}  // namespace mmog::obs
