#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mmog::obs {

/// Merged state of one fixed-bucket histogram. Bucket i counts observations
/// in (bounds[i-1], bounds[i]] (bucket 0 is unbounded below); counts.back()
/// is the overflow bucket for values above the last bound.
struct HistogramData {
  std::vector<double> bounds;          ///< ascending upper bucket bounds
  std::vector<std::uint64_t> counts;   ///< bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< smallest observed value (0 when count == 0)
  double max = 0.0;  ///< largest observed value (0 when count == 0)

  double mean() const noexcept { return count == 0 ? 0.0 : sum / count; }

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// bucket holding the target rank, clamped to the observed [min, max].
  double quantile(double q) const noexcept;
};

/// A merged point-in-time view of a Registry, safe to read and serialize
/// while instrumented code keeps running.
struct Snapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}
  /// with per-histogram bounds, bucket counts and summary statistics.
  std::string to_json() const;

  /// Flat CSV with header "type,name,stat,value"; histograms expand to one
  /// row per summary statistic (count, sum, mean, min, p50, p90, p99, max).
  std::string to_csv() const;
};

/// Log-spaced bucket bounds: lo, lo*factor, ... up to and including the
/// first bound >= hi. Throws std::invalid_argument on a non-positive lo or
/// a factor <= 1.
std::vector<double> log_buckets(double lo, double hi, double factor);

/// Default duration buckets in microseconds: 0.05 us .. ~1 s, log-spaced.
const std::vector<double>& duration_buckets_us();

/// Default event-count buckets: 1 .. 1e9, log-spaced. For histograms that
/// count things per observation (allocations, bytes) rather than time them.
const std::vector<double>& count_buckets();

/// Named counters, gauges and fixed-bucket histograms.
///
/// Counter increments and histogram observations go to a per-thread shard
/// (one per writer thread, created on first use and owned by the registry),
/// so instrumentation inside util::ShardTeam workers never contends on a
/// shared lock: each shard's mutex is only ever touched by its owner thread
/// and by snapshot(), which merges all shards. A small fixed per-thread
/// cache finds the shard without the registry mutex; destroying a registry
/// frees every shard it created. Gauges are set-rarely values and live
/// behind the registry mutex directly (last write wins, whole-registry
/// order).
class Registry {
 public:
  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Adds `delta` to a named counter (creating it at zero).
  void add(std::string_view counter, double delta = 1.0);

  /// Sets a named gauge to `value` (last write wins).
  void set(std::string_view gauge, double value);

  /// Registers a histogram with explicit ascending upper bucket bounds.
  /// Idempotent for identical bounds; throws std::invalid_argument when the
  /// name exists with different bounds or the bounds are empty/unsorted.
  void define_histogram(std::string_view name, std::vector<double> bounds);

  /// Records one observation. Undefined histograms are auto-registered with
  /// duration_buckets_us().
  void observe(std::string_view histogram, double value);

  /// Like observe(), but undefined histograms auto-register with
  /// count_buckets() — use for per-phase allocation/byte counts.
  void observe_count(std::string_view histogram, double value);

  /// Merges every shard (plus the gauges) into one consistent view. May run
  /// concurrently with writers; each shard is merged atomically.
  Snapshot snapshot() const;

 private:
  struct Shard;

  Shard& local_shard() const EXCLUDES(mutex_);
  std::shared_ptr<const std::vector<double>> bounds_for(
      std::string_view name, const std::vector<double>& default_bounds)
      EXCLUDES(mutex_);
  void observe_with_default(std::string_view histogram, double value,
                            const std::vector<double>& default_bounds);

  const std::uint64_t id_;  ///< process-unique, keys the per-thread cache
  mutable util::Mutex mutex_;
  mutable std::vector<std::unique_ptr<Shard>> shards_ GUARDED_BY(mutex_);
  std::map<std::string, std::shared_ptr<const std::vector<double>>,
           std::less<>>
      histogram_bounds_ GUARDED_BY(mutex_);
  std::map<std::string, double, std::less<>> gauges_ GUARDED_BY(mutex_);
};

}  // namespace mmog::obs
