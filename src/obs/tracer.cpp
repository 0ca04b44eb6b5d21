#include "obs/tracer.hpp"

#include <cctype>
#include <istream>
#include <ostream>
#include <stdexcept>

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

/// Minimal cursor parser for the JSONL subset write_jsonl() emits: one flat
/// object per line whose values are strings, numbers, or the one-level
/// "args" object of string values.
class LineParser {
 public:
  explicit LineParser(std::string_view line) : s_(line) {}

  TraceEvent parse() {
    TraceEvent ev;
    expect('{');
    skip_ws();
    if (peek() != '}') {
      for (;;) {
        const std::string key = parse_string();
        expect(':');
        if (key == "args") {
          parse_args(ev.args);
        } else if (key == "kind") {
          const std::string kind = parse_string();
          if (kind == "span") {
            ev.kind = TraceKind::kSpan;
          } else if (kind == "instant") {
            ev.kind = TraceKind::kInstant;
          } else {
            throw std::invalid_argument("trace jsonl: unknown kind " + kind);
          }
        } else if (key == "name") {
          ev.name = parse_string();
        } else if (key == "cat") {
          ev.category = parse_string();
        } else if (key == "seq") {
          ev.seq = static_cast<std::uint64_t>(parse_number());
        } else if (key == "step") {
          ev.step = static_cast<std::uint64_t>(parse_number());
        } else if (key == "ts_us") {
          ev.ts_us = parse_number();
        } else if (key == "dur_us") {
          ev.dur_us = parse_number();
        } else {
          skip_value();
        }
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          skip_ws();
          continue;
        }
        break;
      }
    }
    expect('}');
    return ev;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("trace jsonl: " + what + " at offset " +
                                std::to_string(pos_));
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  void expect(char c) {
    skip_ws();
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          const unsigned code = static_cast<unsigned>(
              std::stoul(std::string(s_.substr(pos_, 4)), nullptr, 16));
          pos_ += 4;
          // The writer only emits \u00XX for control bytes.
          out += static_cast<char>(code & 0xff);
          break;
        }
        default: fail("unsupported escape");
      }
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double parse_number() {
    skip_ws();
    const std::size_t begin = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (begin == pos_) fail("expected number");
    return std::stod(std::string(s_.substr(begin, pos_ - begin)));
  }

  void parse_args(std::vector<TraceArg>& args) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      TraceArg arg;
      arg.key = parse_string();
      expect(':');
      arg.value = parse_string();
      args.push_back(std::move(arg));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        skip_ws();
        continue;
      }
      break;
    }
    expect('}');
  }

  void skip_value() {
    skip_ws();
    if (peek() == '"') {
      parse_string();
    } else if (peek() == '{') {
      std::vector<TraceArg> ignored;
      parse_args(ignored);
    } else {
      parse_number();
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

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
    events.push_back(LineParser(line).parse());
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
