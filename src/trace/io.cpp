#include "trace/io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/csv.hpp"

namespace mmog::trace {
namespace {

/// The shortest text that reads back as exactly `value`: a whole player
/// count prints without a fraction.
std::string shortest_double(double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

}  // namespace

void write_world_csv(std::ostream& out, const WorldTrace& world) {
  util::write_csv_row(out, {"region", "utc_offset_hours", "group", "capacity",
                            "step", "players"});
  for (const auto& region : world.regions) {
    for (const auto& group : region.groups) {
      for (std::size_t t = 0; t < group.players.size(); ++t) {
        util::write_csv_row(
            out, {region.name, std::to_string(region.utc_offset_hours),
                  group.name, std::to_string(group.capacity),
                  std::to_string(t), shortest_double(group.players[t])});
      }
    }
  }
}

void write_world_csv_file(const std::string& path, const WorldTrace& world) {
  util::AtomicFileWriter writer(path);
  write_world_csv(writer.stream(), world);
  writer.commit();
}

namespace {

constexpr std::size_t kBlockBytes = std::size_t{1} << 20;
constexpr std::size_t kNeedMore = std::string_view::npos;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("read_world_csv: " + what);
}

/// Parses a whole cell as a T in [lo, hi]: no blanks, no '+', no fraction
/// for an integer, and for a double no NaN or infinity.
template <typename T>
T parse_cell(std::string_view cell, const char* what,
             T lo = std::numeric_limits<T>::lowest(),
             T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    fail(std::string("bad ") + what + " value '" + std::string(cell) + "'");
  }
  return value;
}

/// The input in fixed-size blocks: buf[begin, end) is not yet consumed.
/// Only a record longer than a block grows buf.
struct Blocks {
  std::istream& in;
  std::string buf = std::string(kBlockBytes, '\0');
  std::size_t begin = 0;
  std::size_t end = 0;
  bool eof = false;

  std::string_view pending() const { return {buf.data() + begin, end - begin}; }

  /// Moves the pending bytes to the front and reads behind them.
  void refill() {
    std::copy(buf.data() + begin, buf.data() + end, buf.data());
    end -= begin;
    begin = 0;
    if (end == buf.size()) buf.resize(2 * end);
    in.read(buf.data() + end, static_cast<std::streamsize>(buf.size() - end));
    end += static_cast<std::size_t>(in.gcount());
    if (in.bad()) fail("read error");
    eof = !in;
  }
};

/// Parses the RFC-4180 record at the front of `text` into `fields`: a
/// quoted field may hold ',', '"' (doubled) and line ends, and a record
/// ends at "\n", "\r\n" or a lone "\r". Returns the bytes the record spans,
/// or kNeedMore when `text` ends inside it and more input may follow.
std::size_t parse_record(std::string_view text, bool at_eof,
                         std::vector<std::string>& fields) {
  fields.assign(1, std::string());
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char ch = text[i];
    const bool last = i + 1 == text.size();
    if (quoted) {
      if (ch != '"') {
        fields.back() += ch;
      } else if (last && !at_eof) {
        return kNeedMore;  // "" may straddle the end of the block
      } else if (!last && text[i + 1] == '"') {
        fields.back() += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (ch == '"') {
      if (!fields.back().empty()) fail("quote inside unquoted field");
      quoted = true;
    } else if (ch == ',') {
      fields.emplace_back();
    } else if (ch == '\n' || ch == '\r') {
      if (ch == '\r' && last && !at_eof) return kNeedMore;
      return i + 1 + (ch == '\r' && !last && text[i + 1] == '\n' ? 1 : 0);
    } else {
      fields.back() += ch;
    }
  }
  if (!at_eof) return kNeedMore;
  if (quoted) fail("unterminated quote");
  return text.size();
}

/// Splits an unquoted line into its first cells.size() cells (later ones
/// are ignored); throws on a short row.
void split_line(std::string_view line, std::span<std::string_view> cells) {
  for (std::size_t c = 0; c + 1 < cells.size(); ++c) {
    const auto comma = line.find(',');
    if (comma == std::string_view::npos) fail("short row");
    cells[c] = line.substr(0, comma);
    line.remove_prefix(comma + 1);
  }
  cells.back() = line.substr(0, line.find(','));
}

/// Builds the world row by row, in first-seen region and group order.
class WorldBuilder {
 public:
  /// Finds the six columns; a missing one throws std::out_of_range.
  explicit WorldBuilder(const std::vector<std::string>& header) {
    static constexpr std::array<std::string_view, 6> kNames = {
        "region", "utc_offset_hours", "group", "capacity", "step", "players"};
    for (std::size_t c = 0; c < kNames.size(); ++c) {
      const auto it = std::find(header.begin(), header.end(), kNames[c]);
      if (it == header.end()) {
        throw std::out_of_range("read_world_csv: no column named " +
                                std::string(kNames[c]));
      }
      column_[c] = static_cast<std::size_t>(it - header.begin());
    }
  }

  void add(std::span<const std::string_view> cells) {
    // A row of the last row's group skips the lookups and its offset and
    // capacity cells.
    if (group_ == nullptr || cells[column_[kGroup]] != group_->name ||
        cells[column_[kRegion]] != world_.regions[region_].name) {
      select(cells);
    }
    const auto step = parse_cell<std::size_t>(cells[column_[kStep]], "step");
    if (step != group_->players.size()) {
      fail("non-contiguous step " + std::to_string(step) + " for group " +
           group_->name + " (expected " +
           std::to_string(group_->players.size()) + ")");
    }
    group_->players.push_back(
        parse_cell(cells[column_[kPlayers]], "players", 0.0));
  }

  WorldTrace take() { return std::move(world_); }

 private:
  enum Column : std::size_t {
    kRegion, kOffset, kGroup, kCapacity, kStep, kPlayers
  };
  using Index = std::map<std::string, std::size_t, std::less<>>;

  /// Points group_ at the row's group, creating it or its region if new.
  void select(std::span<const std::string_view> cells) {
    // The first group is complete once another begins: its length sizes
    // every group created after it.
    if (group_ != nullptr && series_length_ == 0) {
      series_length_ = group_->players.size();
    }
    const auto region_name = cells[column_[kRegion]];
    auto rit = region_index_.find(region_name);
    if (rit == region_index_.end()) {
      const auto offset =
          parse_cell(cells[column_[kOffset]], "utc_offset_hours", -24, 24);
      rit = region_index_.emplace(region_name, world_.regions.size()).first;
      auto& region = world_.regions.emplace_back();
      region.name = region_name;
      region.utc_offset_hours = offset;
      group_index_.emplace_back();
    }
    region_ = rit->second;
    auto& region = world_.regions[region_];
    auto& groups = group_index_[region_];
    const auto group_name = cells[column_[kGroup]];
    auto git = groups.find(group_name);
    if (git == groups.end()) {
      const auto capacity =
          parse_cell<std::size_t>(cells[column_[kCapacity]], "capacity");
      git = groups.emplace(group_name, region.groups.size()).first;
      auto& group = region.groups.emplace_back();
      group.name = group_name;
      group.capacity = capacity;
      group.players = util::TimeSeries(util::kSampleStepSeconds);
      group.players.reserve(series_length_);
    }
    group_ = &region.groups[git->second];
  }

  WorldTrace world_;
  Index region_index_;
  std::vector<Index> group_index_;  // one per region
  std::array<std::size_t, 6> column_{};
  std::size_t region_ = 0;
  ServerGroupTrace* group_ = nullptr;  // re-pointed after every insertion
  std::size_t series_length_ = 0;
};

}  // namespace

WorldTrace read_world_csv(std::istream& in) {
  Blocks blocks{in};
  blocks.refill();
  std::vector<std::string> fields;
  // Takes the next record through the general parser, if there is one.
  const auto next_record = [&] {
    for (auto text = blocks.pending(); !text.empty() || !blocks.eof;
         text = blocks.pending()) {
      const auto used = parse_record(text, blocks.eof, fields);
      if (used != kNeedMore) {
        blocks.begin += used;
        return;
      }
      blocks.refill();
    }
  };

  next_record();  // the header; empty input leaves `fields` empty
  WorldBuilder builder(fields);
  std::vector<std::string_view> cells(fields.size());
  for (;;) {
    const auto text = blocks.pending();
    if (text.empty() && blocks.eof) break;
    const auto newline = text.find('\n');
    auto line = text.substr(0, newline);
    if (newline != std::string_view::npos && line.ends_with('\r')) {
      line.remove_suffix(1);
    }
    if (line.find('"') != std::string_view::npos ||
        line.find('\r') != std::string_view::npos) {
      // Quoted fields and lone CRs take the general parser.
      next_record();
      if (fields.size() == 1 && fields[0].empty()) continue;
      if (fields.size() < cells.size()) fail("short row");
      std::copy_n(fields.begin(), cells.size(), cells.begin());
    } else if (newline == std::string_view::npos && !blocks.eof) {
      blocks.refill();
      continue;
    } else {
      blocks.begin +=
          newline == std::string_view::npos ? text.size() : newline + 1;
      if (line.empty()) continue;
      split_line(line, cells);
    }
    builder.add(cells);
  }
  return builder.take();
}

WorldTrace read_world_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("read_world_csv_file: cannot open " + path);
  }
  return read_world_csv(in);
}

}  // namespace mmog::trace
