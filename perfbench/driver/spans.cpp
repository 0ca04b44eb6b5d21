#include "driver/spans.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "obs/jsonio.hpp"

namespace perfbench {

std::string_view Span::layer() const noexcept {
  const std::string_view full = name;
  return full.substr(0, full.find('.'));
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int SpanRecorder::open(std::string name, int pass) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.pass = pass >= 0 || span.parent < 0
                  ? pass
                  : spans_[static_cast<std::size_t>(span.parent)].pass;
  span.start_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - origin_)
                     .count();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    origin_)
          .count();
  // Scopes close innermost-first; tolerate a stray close all the same.
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

std::vector<double> SpanRecorder::durations(std::string_view name) const {
  std::vector<double> out;
  for (const auto& span : spans_) {
    if (span.name == name) out.push_back(span.duration());
  }
  return out;
}

void SpanRecorder::write_jsonl(std::ostream& out) const {
  for (const auto& span : spans_) {
    std::string name = "\"";
    mmog::obs::append_json_escaped(name, span.name);
    name += '"';
    out << "{\"name\":" << name
        << ",\"start_s\":" << mmog::obs::json_double(span.start_s)
        << ",\"end_s\":" << mmog::obs::json_double(span.end_s)
        << ",\"parent\":" << span.parent << ",\"pass\":" << span.pass
        << "}\n";
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const double from = std::max(span.start_s, parent.start_s);
    const double to = std::min(span.end_s, parent.end_s);
    if (to > from) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(from, to);
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& cover = children[i];
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = spans[i].start_s;
    for (const auto& [from, to] : cover) {
      const double begin = std::max(from, reach);
      if (to > begin) {
        covered += to - begin;
        reach = to;
      }
    }
    out[i] = spans[i].duration() - covered;
  }
  return out;
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[std::string(spans[i].layer())] += self[i];
  }
  return out;
}

}  // namespace perfbench
