#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/audit.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "obs/tracer.hpp"
#include "util/alloccount.hpp"

namespace mmog::obs {

/// How much the tracer records. The registry is always live (it is cheap);
/// the trace level bounds trace-file growth on long runs.
enum class TraceLevel {
  kOff = 0,     ///< metrics only, no trace events
  kSteps = 1,   ///< step/phase spans + allocation and under-allocation events
  kDetail = 2,  ///< + per-unit point events (prediction issued, request padded)
};

/// The observability sink instrumented code writes to. Call sites take a
/// `Recorder*` and treat nullptr as "observability disabled": every guard is
/// a single pointer test, so a null recorder costs nothing — no formatting,
/// no clock reads, no allocation.
class Recorder {
 public:
  explicit Recorder(TraceLevel level = TraceLevel::kSteps)
      : level_(level) {}

  Registry& registry() noexcept { return registry_; }
  const Registry& registry() const noexcept { return registry_; }
  Tracer& tracer() noexcept { return tracer_; }
  const Tracer& tracer() const noexcept { return tracer_; }

  TraceLevel trace_level() const noexcept { return level_; }
  bool tracing() const noexcept { return level_ >= TraceLevel::kSteps; }
  bool detail() const noexcept { return level_ >= TraceLevel::kDetail; }

  void count(std::string_view counter, double delta = 1.0) {
    registry_.add(counter, delta);
  }
  void gauge(std::string_view name, double value) {
    registry_.set(name, value);
  }
  void observe_us(std::string_view histogram, double us) {
    registry_.observe(histogram, us);
  }

  /// Point event; dropped below TraceLevel::kSteps.
  void instant(std::string_view name, std::string_view category,
               std::uint64_t step, std::vector<TraceArg> args = {}) {
    if (tracing()) tracer_.instant(name, category, step, std::move(args));
  }

  /// High-frequency point event; dropped below TraceLevel::kDetail.
  void detail_instant(std::string_view name, std::string_view category,
                      std::uint64_t step, std::vector<TraceArg> args = {}) {
    if (detail()) tracer_.instant(name, category, step, std::move(args));
  }

  Snapshot snapshot() const { return registry_.snapshot(); }

  // --- Live telemetry (PR 3) -------------------------------------------
  //
  // Off by default: a Recorder without enable_timeseries()/enable_alerts()
  // behaves exactly as before and live() short-circuits to false, so the
  // simulator's per-step sampling block never runs. When enabled, the
  // simulation thread calls sample_step() once per step; the HTTP thread
  // (TelemetryService) reads the store/engine through their own locks.
  //
  // The store/engine pointers are published through release/acquire
  // atomics: enable_*() may race with a scrape on the HTTP thread, and the
  // reader must observe a fully constructed object or nullptr — never a
  // half-written pointer. Each enable_*() is one-shot (the owner slot is
  // written once); re-enabling while serving is not supported.

  /// Keep a downsampling ring of every sampled metric (capacity points per
  /// series; resolution halves when full).
  void enable_timeseries(std::size_t capacity_per_series = 512) {
    timeseries_owner_ =
        std::make_unique<TimeSeriesStore>(capacity_per_series);
    timeseries_.store(timeseries_owner_.get(), std::memory_order_release);
  }

  /// Watch the sampled metrics with an alert-rule engine.
  void enable_alerts(std::vector<AlertRule> rules) {
    alerts_owner_ = std::make_unique<AlertEngine>(std::move(rules));
    alerts_.store(alerts_owner_.get(), std::memory_order_release);
  }

  /// Keep a structured decision-audit trail (PR 6). Same contract as the
  /// other enable_*(): one-shot, published release/acquire so a concurrent
  /// `GET /audit` scrape sees a fully constructed trail or nullptr. A
  /// Recorder without enable_audit() costs instrumented sites one pointer
  /// test per decision.
  void enable_audit() {
    audit_owner_ = std::make_unique<AuditTrail>();
    audit_.store(audit_owner_.get(), std::memory_order_release);
  }

  /// Attach the per-run resource profiler (PR 8): arms the global
  /// allocation-counting hooks for its lifetime, makes every PhaseScope
  /// also record `phase.<name>_allocs` / `phase.<name>_alloc_bytes`, and
  /// publishes throughput/RSS gauges plus the lock-free mirrors /healthz
  /// reads. Same one-shot release/acquire contract as the other
  /// enable_*(). Without it, PhaseScope pays one pointer test and every
  /// heap allocation one relaxed flag load — outcomes stay byte-identical
  /// (enforced by the determinism property tests).
  void enable_profiler() {
    profiler_owner_ = std::make_unique<ResourceProfiler>();
    profiler_.store(profiler_owner_.get(), std::memory_order_release);
  }

  TimeSeriesStore* timeseries() noexcept {
    return timeseries_.load(std::memory_order_acquire);
  }
  const TimeSeriesStore* timeseries() const noexcept {
    return timeseries_.load(std::memory_order_acquire);
  }
  AlertEngine* alerts() noexcept {
    return alerts_.load(std::memory_order_acquire);
  }
  const AlertEngine* alerts() const noexcept {
    return alerts_.load(std::memory_order_acquire);
  }
  AuditTrail* audit() noexcept {
    return audit_.load(std::memory_order_acquire);
  }
  const AuditTrail* audit() const noexcept {
    return audit_.load(std::memory_order_acquire);
  }
  ResourceProfiler* profiler() noexcept {
    return profiler_.load(std::memory_order_acquire);
  }
  const ResourceProfiler* profiler() const noexcept {
    return profiler_.load(std::memory_order_acquire);
  }

  /// True when per-step sampling has a consumer (store or alert engine).
  bool live() const noexcept {
    return timeseries() != nullptr || alerts() != nullptr;
  }

  /// Step of the most recent sample_step() call (0 before the first).
  std::uint64_t last_sampled_step() const noexcept {
    return last_step_.load(std::memory_order_relaxed);
  }

  /// What /healthz reports about checkpointing: the last durable
  /// checkpoint's step and how long ago it was written. `any` is false
  /// until the first note_checkpoint() call.
  struct CheckpointInfo {
    bool any = false;
    std::uint64_t step = 0;
    double age_seconds = 0.0;
  };

  /// Marks a checkpoint durably written at `step` (called on the
  /// simulation thread right after the file rename lands).
  void note_checkpoint(std::uint64_t step) noexcept {
    last_checkpoint_step_.store(step, std::memory_order_relaxed);
    last_checkpoint_us_.store(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count(),
        std::memory_order_release);
  }

  CheckpointInfo last_checkpoint() const noexcept {
    const std::int64_t at_us =
        last_checkpoint_us_.load(std::memory_order_acquire);
    if (at_us < 0) return {};
    const std::int64_t now_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    return {true, last_checkpoint_step_.load(std::memory_order_relaxed),
            static_cast<double>(now_us - at_us) / 1e6};
  }

  /// Records one step's live samples: publishes each as a gauge (so a
  /// /metrics scrape sees the current value), appends to the time-series
  /// store, and feeds the alert engine — firing/resolve edges become
  /// tracer instants (category "alert") and `alert.fired` /
  /// `alert.resolved` counters. Values are deterministic simulation state;
  /// this never influences control flow.
  void sample_step(std::uint64_t step, const std::vector<Sample>& samples) {
    last_step_.store(step, std::memory_order_relaxed);
    for (const auto& sample : samples) {
      registry_.set(sample.name, sample.value);
    }
    if (TimeSeriesStore* store = timeseries()) store->append(step, samples);
    AlertEngine* engine = alerts();
    if (!engine) return;
    for (const auto& edge : engine->observe(step, samples)) {
      const bool fired = edge.kind == AlertTransition::Kind::kFired;
      count(fired ? "alert.fired" : "alert.resolved");
      instant(fired ? "alert.firing" : "alert.resolved", "alert", step,
              {{"rule", edge.rule_name},
               {"metric", edge.metric},
               {"value", std::to_string(edge.value)}});
    }
  }

 private:
  Registry registry_;
  Tracer tracer_;
  TraceLevel level_;
  std::unique_ptr<TimeSeriesStore> timeseries_owner_;
  std::unique_ptr<AlertEngine> alerts_owner_;
  std::unique_ptr<AuditTrail> audit_owner_;
  std::unique_ptr<ResourceProfiler> profiler_owner_;
  std::atomic<TimeSeriesStore*> timeseries_{nullptr};
  std::atomic<AlertEngine*> alerts_{nullptr};
  std::atomic<AuditTrail*> audit_{nullptr};
  std::atomic<ResourceProfiler*> profiler_{nullptr};
  std::atomic<std::uint64_t> last_step_{0};
  std::atomic<std::uint64_t> last_checkpoint_step_{0};
  std::atomic<std::int64_t> last_checkpoint_us_{-1};  ///< -1 = none yet
};

/// Monotonic microsecond stopwatch for timing instrumented sections.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void reset() { start_ = std::chrono::steady_clock::now(); }

  double elapsed_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// RAII phase profiler: on destruction records the elapsed wall time into
/// the histogram "phase.<name>_us" and (when tracing) emits a span named
/// `name`. With a ResourceProfiler attached it additionally differences
/// the global allocation totals around the scope into
/// "phase.<name>_allocs" / "phase.<name>_alloc_bytes" (count-bucket
/// histograms). Null-recorder construction is free: no clock is read.
class PhaseScope {
 public:
  PhaseScope(Recorder* recorder, std::string_view name, std::uint64_t step,
             std::string_view category = "phase")
      : recorder_(recorder) {
    if (!recorder_) return;
    name_ = name;
    category_ = category;
    step_ = step;
    if (recorder_->tracing()) span_start_us_ = recorder_->tracer().now_us();
    if (recorder_->profiler() != nullptr) {
      profiled_ = true;
      alloc_start_ = util::alloccount::totals();
    }
    start_ = std::chrono::steady_clock::now();
  }

  ~PhaseScope() {
    if (!recorder_) return;
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    // Histogram keys are composed on the stack: a nested scope's teardown
    // runs inside the enclosing scope's allocation window, so heap-built
    // key strings here would be charged to the parent phase's
    // "phase.<parent>_allocs" profile.
    char buf[64];
    if (profiled_) {
      // Delta first, record after: anything the recording itself allocates
      // belongs to the enclosing scope, not to this phase.
      const auto delta = util::alloccount::totals() - alloc_start_;
      Registry& registry = recorder_->registry();
      registry.observe_count(key(buf, "_allocs"),
                             static_cast<double>(delta.allocs));
      registry.observe_count(key(buf, "_alloc_bytes"),
                             static_cast<double>(delta.bytes));
    }
    recorder_->observe_us(key(buf, "_us"), us);
    if (recorder_->tracing()) {
      recorder_->tracer().complete_span(name_, category_, step_,
                                        span_start_us_, us);
    }
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  /// "phase.<name><suffix>" without touching the heap; falls back to an
  /// owned string only for names too long for the buffer.
  std::string_view key(char (&buf)[64], std::string_view suffix) {
    constexpr std::string_view prefix = "phase.";
    if (prefix.size() + name_.size() + suffix.size() > sizeof buf) {
      overflow_key_.assign(prefix);
      overflow_key_ += name_;
      overflow_key_ += suffix;
      return overflow_key_;
    }
    char* p = buf;
    std::memcpy(p, prefix.data(), prefix.size());
    p += prefix.size();
    std::memcpy(p, name_.data(), name_.size());
    p += name_.size();
    std::memcpy(p, suffix.data(), suffix.size());
    p += suffix.size();
    return {buf, static_cast<std::size_t>(p - buf)};
  }

  Recorder* recorder_;
  std::string name_;
  std::string category_;
  std::string overflow_key_;
  std::uint64_t step_ = 0;
  double span_start_us_ = 0.0;
  bool profiled_ = false;
  util::alloccount::Totals alloc_start_;
  /// Set only with a recorder (a Stopwatch member would read the clock
  /// even for a null one).
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace mmog::obs
