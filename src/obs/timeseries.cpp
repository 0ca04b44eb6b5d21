#include "obs/timeseries.hpp"

#include <algorithm>

#include "obs/jsonio.hpp"
#include "util/csv.hpp"

namespace mmog::obs {

TimeSeriesBuffer::TimeSeriesBuffer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(2, capacity + (capacity & 1))) {
  points_.reserve(capacity_);
}

void TimeSeriesBuffer::push(double value) {
  acc_ += value;
  ++acc_n_;
  ++total_;
  if (acc_n_ < stride_) return;
  points_.push_back(acc_ / static_cast<double>(stride_));
  acc_ = 0.0;
  acc_n_ = 0;
  if (points_.size() < capacity_) return;
  // Compact: average adjacent pairs, halve the resolution, double the
  // stride. Runs right after a full point was appended, so the in-progress
  // accumulator is always empty here.
  for (std::size_t i = 0; i + 1 < points_.size(); i += 2) {
    points_[i / 2] = 0.5 * (points_[i] + points_[i + 1]);
  }
  points_.resize(points_.size() / 2);
  stride_ *= 2;
}

bool TimeSeriesBuffer::partial(double* mean_out) const noexcept {
  if (acc_n_ == 0) return false;
  if (mean_out) *mean_out = acc_ / static_cast<double>(acc_n_);
  return true;
}

TimeSeriesStore::TimeSeriesStore(std::size_t capacity_per_series)
    : capacity_(capacity_per_series) {}

void TimeSeriesStore::append(std::uint64_t step,
                             const std::vector<Sample>& samples) {
  util::MutexLock lock(mutex_);
  for (const auto& sample : samples) {
    auto it = series_.find(sample.name);
    if (it == series_.end()) {
      it = series_
               .emplace(sample.name,
                        Series{step, TimeSeriesBuffer(capacity_)})
               .first;
    }
    it->second.buffer.push(sample.value);
  }
}

std::size_t TimeSeriesStore::series_count() const {
  util::MutexLock lock(mutex_);
  return series_.size();
}

std::vector<std::string> TimeSeriesStore::names() const {
  util::MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, series] : series_) out.push_back(name);
  return out;
}

std::string TimeSeriesStore::to_json() const {
  util::MutexLock lock(mutex_);
  std::string out = "{\"series\":[";
  bool sep = false;
  for (const auto& [name, series] : series_) {
    if (sep) out += ',';
    sep = true;
    const auto& buf = series.buffer;
    out += "{\"name\":\"";
    append_json_escaped(out, name);
    out += "\",\"start_step\":" + std::to_string(series.start_step);
    out += ",\"stride\":" + std::to_string(buf.stride());
    out += ",\"samples_seen\":" + std::to_string(buf.samples_seen());
    out += ",\"points\":[";
    for (std::size_t i = 0; i < buf.points().size(); ++i) {
      if (i) out += ',';
      out += json_number(buf.points()[i]);
    }
    double tail = 0.0;
    if (buf.partial(&tail)) {
      if (!buf.points().empty()) out += ',';
      out += json_number(tail);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string TimeSeriesStore::to_csv() const {
  util::MutexLock lock(mutex_);
  std::string out = "name,step,value\n";
  for (const auto& [name, series] : series_) {
    const auto& buf = series.buffer;
    const std::string escaped = util::csv_escape(name);
    auto row = [&](std::size_t index, double value) {
      out += escaped + ',' +
             std::to_string(series.start_step +
                            index * static_cast<std::uint64_t>(buf.stride())) +
             ',' + json_number(value) + '\n';
    };
    for (std::size_t i = 0; i < buf.points().size(); ++i) {
      row(i, buf.points()[i]);
    }
    double tail = 0.0;
    if (buf.partial(&tail)) row(buf.points().size(), tail);
  }
  return out;
}

}  // namespace mmog::obs
