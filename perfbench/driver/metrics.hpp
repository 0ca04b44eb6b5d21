#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One metric the benchmark reports, as BENCHMARK.json lists it.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
};

/// End-to-end metrics: every one is printed by each untraced run.
const std::vector<MetricDef>& end_to_end_metrics();

/// Per-layer metrics: every one is printed by each traced run.
const std::vector<MetricDef>& per_layer_metrics();

/// True when `name` is 1..64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit, and `unit` is 1..16 characters of [A-Za-z0-9_/%.-].
bool valid_metric(const MetricDef& def);

/// A measured value and the samples it summarizes.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 1;
  double q1 = 0.0;  ///< quartiles of the samples (the value when 1 sample)
  double q3 = 0.0;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":
/// {"<name>":{"value":..,"unit":".."},..}} with every double in its
/// shortest round-trip form.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
