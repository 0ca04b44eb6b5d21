#include "obs/registry.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>

#include "obs/jsonio.hpp"
#include "util/csv.hpp"

namespace mmog::obs {
namespace {

/// Transparent hashing so shard lookups take string_view without allocating.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Per-shard histogram state sharing the registry's bound vector.
struct LocalHistogram {
  std::shared_ptr<const std::vector<double>> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  explicit LocalHistogram(std::shared_ptr<const std::vector<double>> b)
      : bounds(std::move(b)), counts(bounds->size() + 1, 0) {}

  void observe(double value) noexcept {
    const auto it =
        std::lower_bound(bounds->begin(), bounds->end(), value);
    ++counts[static_cast<std::size_t>(it - bounds->begin())];
    ++count;
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
  }
};

}  // namespace

struct Registry::Shard {
  explicit Shard(std::thread::id writer) : owner(writer) {}

  const std::thread::id owner;  ///< the one thread that writes this shard
  util::Mutex mutex;  ///< owner thread + snapshot() only: effectively free
  std::unordered_map<std::string, double, StringHash, std::equal_to<>>
      counters GUARDED_BY(mutex);
  std::unordered_map<std::string, LocalHistogram, StringHash, std::equal_to<>>
      histograms GUARDED_BY(mutex);
};

double HistogramData::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts[i]);
    if (counts[i] > 0 && next >= target) {
      double lo = i == 0 ? min : bounds[i - 1];
      double hi = i < bounds.size() ? bounds[i] : max;
      lo = std::clamp(lo, min, max);
      hi = std::clamp(hi, min, max);
      const double frac =
          (target - cumulative) / static_cast<double>(counts[i]);
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return max;
}

std::vector<double> log_buckets(double lo, double hi, double factor) {
  if (lo <= 0.0 || factor <= 1.0) {
    throw std::invalid_argument("log_buckets: need lo > 0 and factor > 1");
  }
  std::vector<double> bounds;
  double b = lo;
  while (true) {
    bounds.push_back(b);
    if (b >= hi) break;
    b *= factor;
  }
  return bounds;
}

const std::vector<double>& duration_buckets_us() {
  static const std::vector<double> buckets = log_buckets(0.05, 1e6, 2.0);
  return buckets;
}

const std::vector<double>& count_buckets() {
  static const std::vector<double> buckets = log_buckets(1.0, 1e9, 4.0);
  return buckets;
}

Registry::Registry()
    : id_([] {
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1);
      }()) {}

Registry::~Registry() = default;

Registry::Shard& Registry::local_shard() const {
  // A fixed, direct-mapped per-thread cache keyed by the process-unique
  // registry id (never an address, which could be reused): an entry left by
  // a destroyed registry is never hit, only overwritten, and the cache
  // never allocates. The registry itself owns the thread -> shard lookup
  // (`shards_`, searched by owner) and frees it on destruction.
  struct CacheEntry {
    std::uint64_t id = 0;  // registry ids start at 1
    Shard* shard = nullptr;
  };
  constexpr std::size_t kCacheSlots = 8;
  thread_local std::array<CacheEntry, kCacheSlots> cache{};
  CacheEntry& entry = cache[id_ % kCacheSlots];
  if (entry.id == id_) return *entry.shard;
  const std::thread::id self = std::this_thread::get_id();
  util::MutexLock lock(mutex_);
  Shard* shard = nullptr;
  for (const auto& s : shards_) {
    if (s->owner == self) {
      shard = s.get();
      break;
    }
  }
  if (shard == nullptr) {
    shards_.push_back(std::make_unique<Shard>(self));
    shard = shards_.back().get();
  }
  entry = {id_, shard};
  return *shard;
}

std::shared_ptr<const std::vector<double>> Registry::bounds_for(
    std::string_view name, const std::vector<double>& default_bounds) {
  util::MutexLock lock(mutex_);
  if (const auto it = histogram_bounds_.find(name);
      it != histogram_bounds_.end()) {
    return it->second;
  }
  auto bounds = std::make_shared<const std::vector<double>>(default_bounds);
  histogram_bounds_.emplace(std::string(name), bounds);
  return bounds;
}

void Registry::add(std::string_view counter, double delta) {
  Shard& shard = local_shard();
  util::MutexLock lock(shard.mutex);
  if (const auto it = shard.counters.find(counter);
      it != shard.counters.end()) {
    it->second += delta;
  } else {
    shard.counters.emplace(std::string(counter), delta);
  }
}

void Registry::set(std::string_view gauge, double value) {
  util::MutexLock lock(mutex_);
  if (const auto it = gauges_.find(gauge); it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(gauge), value);
  }
}

void Registry::define_histogram(std::string_view name,
                                std::vector<double> bounds) {
  if (bounds.empty() || !std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument(
        "define_histogram: bounds must be non-empty and ascending");
  }
  util::MutexLock lock(mutex_);
  if (const auto it = histogram_bounds_.find(name);
      it != histogram_bounds_.end()) {
    if (*it->second != bounds) {
      throw std::invalid_argument("define_histogram: '" + std::string(name) +
                                  "' already defined with different bounds");
    }
    return;
  }
  histogram_bounds_.emplace(
      std::string(name),
      std::make_shared<const std::vector<double>>(std::move(bounds)));
}

void Registry::observe(std::string_view histogram, double value) {
  observe_with_default(histogram, value, duration_buckets_us());
}

void Registry::observe_count(std::string_view histogram, double value) {
  observe_with_default(histogram, value, count_buckets());
}

void Registry::observe_with_default(
    std::string_view histogram, double value,
    const std::vector<double>& default_bounds) {
  Shard& shard = local_shard();
  {
    util::MutexLock lock(shard.mutex);
    if (const auto it = shard.histograms.find(histogram);
        it != shard.histograms.end()) {
      it->second.observe(value);
      return;
    }
  }
  // First observation of this name on this thread: resolve the bounds
  // outside the shard lock (bounds_for takes the registry mutex, which
  // snapshot() holds while collecting shard pointers).
  auto bounds = bounds_for(histogram, default_bounds);
  util::MutexLock lock(shard.mutex);
  shard.histograms.emplace(std::string(histogram),
                           LocalHistogram(std::move(bounds)))
      .first->second.observe(value);
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::vector<Shard*> shards;
  {
    util::MutexLock lock(mutex_);
    shards.reserve(shards_.size());
    for (const auto& s : shards_) shards.push_back(s.get());
    snap.gauges.insert(gauges_.begin(), gauges_.end());
  }
  for (Shard* shard : shards) {
    util::MutexLock lock(shard->mutex);
    for (const auto& [name, value] : shard->counters) {
      snap.counters[name] += value;
    }
    for (const auto& [name, local] : shard->histograms) {
      auto [it, inserted] = snap.histograms.try_emplace(name);
      HistogramData& merged = it->second;
      if (inserted) {
        merged.bounds = *local.bounds;
        merged.counts.assign(local.counts.size(), 0);
      }
      for (std::size_t i = 0; i < local.counts.size(); ++i) {
        merged.counts[i] += local.counts[i];
      }
      const bool first = merged.count == 0;
      merged.count += local.count;
      merged.sum += local.sum;
      if (local.count > 0) {
        merged.min = first ? local.min : std::min(merged.min, local.min);
        merged.max = first ? local.max : std::max(merged.max, local.max);
      }
    }
  }
  return snap;
}

std::string Snapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool sep = false;
  for (const auto& [name, value] : counters) {
    if (sep) out += ',';
    out += '"';
    append_json_escaped(out, name);
    out += "\":" + json_number(value);
    sep = true;
  }
  out += "},\"gauges\":{";
  sep = false;
  for (const auto& [name, value] : gauges) {
    if (sep) out += ',';
    out += '"';
    append_json_escaped(out, name);
    out += "\":" + json_number(value);
    sep = true;
  }
  out += "},\"histograms\":{";
  sep = false;
  for (const auto& [name, h] : histograms) {
    if (sep) out += ',';
    out += '"';
    append_json_escaped(out, name);
    out += "\":{\"count\":" + json_number(static_cast<double>(h.count));
    out += ",\"sum\":" + json_number(h.sum);
    out += ",\"mean\":" + json_number(h.mean());
    out += ",\"min\":" + json_number(h.min);
    out += ",\"p50\":" + json_number(h.quantile(0.5));
    out += ",\"p90\":" + json_number(h.quantile(0.9));
    out += ",\"p99\":" + json_number(h.quantile(0.99));
    out += ",\"max\":" + json_number(h.max);
    out += ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ',';
      out += json_number(h.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out += ',';
      out += json_number(static_cast<double>(h.counts[i]));
    }
    out += "]}";
    sep = true;
  }
  out += "}}";
  return out;
}

std::string Snapshot::to_csv() const {
  std::string out = "type,name,stat,value\n";
  // Metric names are free-form (callers may embed commas or quotes), so
  // the name field goes through RFC-4180 escaping; type and stat are fixed
  // tokens.
  auto row = [&out](std::string_view type, std::string_view name,
                    std::string_view stat, double value) {
    out += std::string(type) + ',' + util::csv_escape(name) + ',' +
           std::string(stat) + ',' + json_number(value) + '\n';
  };
  for (const auto& [name, value] : counters) {
    row("counter", name, "value", value);
  }
  for (const auto& [name, value] : gauges) row("gauge", name, "value", value);
  for (const auto& [name, h] : histograms) {
    row("histogram", name, "count", static_cast<double>(h.count));
    row("histogram", name, "sum", h.sum);
    row("histogram", name, "mean", h.mean());
    row("histogram", name, "min", h.min);
    row("histogram", name, "p50", h.quantile(0.5));
    row("histogram", name, "p90", h.quantile(0.9));
    row("histogram", name, "p99", h.quantile(0.99));
    row("histogram", name, "max", h.max);
  }
  return out;
}

}  // namespace mmog::obs
