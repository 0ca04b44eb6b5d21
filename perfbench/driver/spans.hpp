#pragma once

#include <chrono>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One timed call into a layer. Names are "<layer>.<call>", the layer being
/// the src/ module the call enters ("core.simulate", "ckpt.to_jsonl").
struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
  int parent = -1;  ///< index of the enclosing span; -1 at top level
  int pass = -1;    ///< simulate() pass the span belongs to; -1 for none

  double duration() const noexcept { return end_s - start_s; }
  /// The text before the first '.'.
  std::string_view layer() const noexcept;
};

/// The traced run's span store: spans are kept in memory, nested by a
/// stack of open spans (the benchmark is single-threaded), and written out
/// once at the end. A disabled recorder records nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span inside the innermost open one. A child inherits its
  /// parent's pass unless `pass` names one. Returns the span's index, or
  /// -1 when disabled.
  int open(std::string name, int pass = -1);
  void close(int index);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations (seconds) of every closed span called `name`, in order.
  std::vector<double> durations(std::string_view name) const;

  /// One JSON object per line: name, start_s, end_s, parent, pass.
  void write_jsonl(std::ostream& out) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; free when the recorder is disabled.
class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, std::string name, int pass = -1)
      : recorder_(recorder), index_(recorder.open(std::move(name), pass)) {}
  ~SpanScope() { recorder_.close(index_); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Sum of self times per layer.
std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans);

}  // namespace perfbench
