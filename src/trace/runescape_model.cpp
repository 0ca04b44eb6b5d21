#include "trace/runescape_model.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace mmog::trace {
namespace {

constexpr double kStepsPerDay = 720.0;  // 2-minute samples

/// Smooth ramp from 0 to 1 over `len` steps (cosine easing).
double ramp01(double x, double len) {
  if (len <= 0.0) return x >= 0.0 ? 1.0 : 0.0;
  const double u = std::clamp(x / len, 0.0, 1.0);
  return 0.5 - 0.5 * std::cos(std::numbers::pi * u);
}

double unpopular_decision_envelope(const EventSpec& e, double steps_since) {
  const double drop_len = 0.6 * kStepsPerDay;     // "in less than one day"
  const double recover_len = 2.0 * kStepsPerDay;  // gradual comeback
  const double delay = static_cast<double>(e.recovery_delay_steps);
  if (steps_since < delay) {
    return 1.0 - e.magnitude * ramp01(steps_since, drop_len);
  }
  // Recovery starts from wherever the drop actually got to — an amendment
  // issued before the full drop completed must not jump the level down.
  const double low = 1.0 - e.magnitude * ramp01(delay, drop_len);
  const double since_amend = steps_since - delay;
  return low + (e.recovery_level - low) * ramp01(since_amend, recover_len);
}

double content_release_envelope(const EventSpec& e, double steps_since) {
  const double rise_len = 1.0 * kStepsPerDay;     // surge builds in a day
  const double plateau_len = 4.0 * kStepsPerDay;  // "about one week" total
  const double decay_len = 3.0 * kStepsPerDay;
  const double residual = 0.05;  // releases retain a few percent of players
  double shape = 0.0;
  if (steps_since < rise_len) {
    shape = ramp01(steps_since, rise_len);
  } else if (steps_since < rise_len + plateau_len) {
    shape = 1.0;
  } else {
    const double d = steps_since - rise_len - plateau_len;
    shape = residual + (1.0 - residual) * (1.0 - ramp01(d, decay_len));
  }
  return 1.0 + e.magnitude * shape;
}

struct GroupState {
  double weight = 1.0;
  bool always_full = false;
  std::vector<std::pair<std::size_t, std::size_t>> outages;  // [begin, end)

  bool in_outage(std::size_t step) const noexcept {
    for (const auto& [b, e] : outages) {
      if (step >= b && step < e) return true;
    }
    return false;
  }
};

}  // namespace

double event_multiplier(const std::vector<EventSpec>& events,
                        std::size_t step) {
  double mult = 1.0;
  for (const auto& e : events) {
    if (step < e.step) continue;
    const double since = static_cast<double>(step - e.step);
    switch (e.kind) {
      case EventSpec::Kind::kUnpopularDecision:
        mult *= unpopular_decision_envelope(e, since);
        break;
      case EventSpec::Kind::kContentRelease:
        mult *= content_release_envelope(e, since);
        break;
    }
  }
  return mult;
}

RuneScapeModelConfig RuneScapeModelConfig::paper_default() {
  RuneScapeModelConfig c;
  c.regions = {
      {.name = "Europe",
       .utc_offset_hours = 1,
       .server_groups = 40,
       .base_players_per_group = 1250.0,
       .weekend_multiplier = 1.0,  // region 0 shows no weekend effect (§III-C)
       .always_full_fraction = 0.03},
      {.name = "US East Coast",
       .utc_offset_hours = -5,
       .server_groups = 30,
       .base_players_per_group = 1150.0,
       .weekend_multiplier = 1.12,
       .always_full_fraction = 0.03},
      {.name = "US West Coast",
       .utc_offset_hours = -8,
       .server_groups = 25,
       .base_players_per_group = 1150.0,
       .weekend_multiplier = 1.12,
       .always_full_fraction = 0.04},
      {.name = "US Central",
       .utc_offset_hours = -6,
       .server_groups = 15,
       .base_players_per_group = 1050.0,
       .weekend_multiplier = 1.12,
       .always_full_fraction = 0.03},
      {.name = "Australia",
       .utc_offset_hours = 10,
       .server_groups = 10,
       .base_players_per_group = 950.0,
       .weekend_multiplier = 1.10,
       .always_full_fraction = 0.03},
  };
  return c;
}

std::size_t RuneScapeModelConfig::total_groups() const noexcept {
  std::size_t total = 0;
  for (const RegionSpec& r : regions) total += r.server_groups;
  return total;
}

void RuneScapeModelConfig::scale_to_groups(std::size_t total_groups) {
  if (regions.empty() || total_groups == 0) return;
  if (total_groups < regions.size()) regions.resize(total_groups);
  const std::size_t current = this->total_groups();
  if (current == 0 || current == total_groups) return;

  // Largest-remainder apportionment: floor every region's proportional
  // share (at least 1), then hand the leftover groups to the regions with
  // the largest fractional remainders, ties to the earlier region so the
  // result is deterministic.
  std::vector<double> remainders(regions.size());
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const double exact = static_cast<double>(regions[i].server_groups) *
                         static_cast<double>(total_groups) /
                         static_cast<double>(current);
    std::size_t share = static_cast<std::size_t>(exact);
    if (share == 0) share = 1;
    remainders[i] = exact - static_cast<double>(share);
    regions[i].server_groups = share;
    assigned += share;
  }
  while (assigned < total_groups) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < regions.size(); ++i) {
      if (remainders[i] > remainders[best]) best = i;
    }
    remainders[best] -= 1.0;
    ++regions[best].server_groups;
    ++assigned;
  }
  while (assigned > total_groups) {  // over-assignment from the 1-minimums
    std::size_t best = 0;
    for (std::size_t i = 1; i < regions.size(); ++i) {
      if (regions[i].server_groups > regions[best].server_groups) best = i;
    }
    if (regions[best].server_groups <= 1) break;
    --regions[best].server_groups;
    --assigned;
  }
}

namespace {

/// One global activity wave: a triangular surge envelope.
struct Wave {
  std::size_t start = 0;
  std::size_t rise = 3;
  std::size_t fall = 6;
  double amplitude = 0.1;

  double at(std::size_t step) const noexcept {
    if (step < start) return 0.0;
    const std::size_t s = step - start;
    if (s < rise) {
      return amplitude * static_cast<double>(s) / static_cast<double>(rise);
    }
    if (s < rise + fall) {
      return amplitude *
             (1.0 - static_cast<double>(s - rise) / static_cast<double>(fall));
    }
    return 0.0;
  }
};

std::vector<Wave> schedule_waves(const RuneScapeModelConfig& config,
                                 util::Rng& rng) {
  std::vector<Wave> waves;
  const double days = static_cast<double>(config.steps) / kStepsPerDay;
  const auto count = rng.poisson(config.waves_per_day * days);
  waves.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Wave w;
    w.start = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(config.steps) - 1));
    w.rise = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(config.wave_min_rise_steps),
                        static_cast<std::int64_t>(config.wave_max_rise_steps)));
    w.fall = 2 * w.rise;
    w.amplitude =
        config.wave_amplitude * std::max(0.25, rng.lognormal(0.0, 0.4));
    waves.push_back(w);
  }
  return waves;
}

}  // namespace

WorldTrace generate(const RuneScapeModelConfig& config) {
  util::Rng rng(config.seed);
  WorldTrace world;
  world.step_seconds = util::kSampleStepSeconds;
  world.regions.reserve(config.regions.size());

  // Game-wide activity waves hit every region simultaneously.
  util::Rng wave_rng = rng.fork();
  const auto waves = schedule_waves(config, wave_rng);
  std::vector<double> wave_mult(config.steps, 1.0);
  for (std::size_t t = 0; t < config.steps; ++t) {
    for (const auto& w : waves) wave_mult[t] += w.at(t);
  }

  for (const auto& spec : config.regions) {
    util::Rng region_rng = rng.fork();
    RegionalTrace region;
    region.name = spec.name;
    region.utc_offset_hours = spec.utc_offset_hours;
    region.groups.resize(spec.server_groups);

    // Fixed per-group popularity and the always-full subset.
    std::vector<GroupState> states(spec.server_groups);
    const auto always_full_count = static_cast<std::size_t>(
        std::llround(spec.always_full_fraction *
                     static_cast<double>(spec.server_groups)));
    for (std::size_t g = 0; g < spec.server_groups; ++g) {
      auto& group = region.groups[g];
      group.name = spec.name + "-" + std::to_string(g + 1);
      group.capacity = 2000;
      group.players = util::TimeSeries(util::kSampleStepSeconds);
      group.players.reserve(config.steps);
      states[g].weight = region_rng.lognormal(0.0, 0.35);
      states[g].always_full = g < always_full_count;
      // Rare short outages (Poisson arrivals over the whole horizon).
      const double weeks =
          static_cast<double>(config.steps) / (7.0 * kStepsPerDay);
      const auto n_outages =
          region_rng.poisson(config.outages_per_group_week * weeks);
      for (std::uint64_t o = 0; o < n_outages; ++o) {
        const auto begin = static_cast<std::size_t>(region_rng.uniform_int(
            0, static_cast<std::int64_t>(config.steps) - 1));
        const auto len = static_cast<std::size_t>(region_rng.uniform_int(
            static_cast<std::int64_t>(config.outage_min_steps),
            static_cast<std::int64_t>(config.outage_max_steps)));
        states[g].outages.emplace_back(begin,
                                       std::min(config.steps, begin + len));
      }
    }

    double weight_total = 0.0;
    std::size_t normal_groups = 0;
    for (const auto& st : states) {
      if (!st.always_full) {
        weight_total += st.weight;
        ++normal_groups;
      }
    }
    if (weight_total <= 0.0) weight_total = 1.0;

    double noise_state = 0.0;  // AR(1) multiplicative region noise
    for (std::size_t t = 0; t < config.steps; ++t) {
      const double hours = static_cast<double>(t) *
                           util::kSampleStepSeconds / 3600.0;
      const double local_hour = std::fmod(
          hours + static_cast<double>(spec.utc_offset_hours) + 48.0, 24.0);
      const double diurnal =
          1.0 + config.diurnal_amplitude *
                    std::cos(2.0 * std::numbers::pi *
                             (local_hour - config.peak_hour) / 24.0);
      // Weekend effect with a smooth ~4 h transition around midnight (real
      // populations shift gradually, not as a step).
      const double week_hours = std::fmod(hours, 7.0 * 24.0);
      const double weekend_start = 5.0 * 24.0;
      const double weekend_end = 7.0 * 24.0;
      const double transition = 4.0;
      double weekend_level = 0.0;
      if (week_hours >= weekend_start - transition &&
          week_hours < weekend_start) {
        weekend_level = (week_hours - (weekend_start - transition)) / transition;
      } else if (week_hours >= weekend_start &&
                 week_hours < weekend_end - transition) {
        weekend_level = 1.0;
      } else if (week_hours >= weekend_end - transition) {
        weekend_level = (weekend_end - week_hours) / transition;
      }
      const double weekly =
          1.0 + (spec.weekend_multiplier - 1.0) * weekend_level;
      const double events = event_multiplier(config.events, t);
      noise_state = config.noise_persistence * noise_state +
                    region_rng.normal(0.0, config.region_noise);
      const double noise = std::max(0.3, 1.0 + noise_state);
      const double demand = static_cast<double>(normal_groups) *
                            spec.base_players_per_group * diurnal * weekly *
                            events * noise * wave_mult[t];

      // Distribute demand over the normal groups by popularity weight,
      // clamp at capacity, and spill the overflow into remaining headroom.
      std::vector<double> loads(spec.server_groups, 0.0);
      double overflow = 0.0;
      for (std::size_t g = 0; g < spec.server_groups; ++g) {
        const auto& st = states[g];
        const auto cap = static_cast<double>(region.groups[g].capacity);
        if (st.in_outage(t)) {
          overflow += st.always_full
                          ? cap * 0.97
                          : demand * st.weight / weight_total;
          continue;
        }
        if (st.always_full) {
          loads[g] = cap * std::clamp(0.95 + region_rng.normal(0.0, 0.01),
                                      0.90, 1.0);
          continue;
        }
        const double gnoise =
            std::max(0.0, 1.0 + region_rng.normal(0.0, config.group_noise));
        double want = demand * st.weight / weight_total * gnoise;
        if (want > cap) {
          overflow += want - cap;
          want = cap;
        }
        loads[g] = want;
      }
      // Spill overflow into groups with headroom, round-robin.
      for (std::size_t g = 0; g < spec.server_groups && overflow > 0.0; ++g) {
        if (states[g].in_outage(t) || states[g].always_full) continue;
        const auto cap = static_cast<double>(region.groups[g].capacity);
        const double room = cap - loads[g];
        const double take = std::min(room, overflow);
        loads[g] += take;
        overflow -= take;
      }
      for (std::size_t g = 0; g < spec.server_groups; ++g) {
        region.groups[g].players.push_back(std::floor(loads[g]));
      }
    }
    world.regions.push_back(std::move(region));
  }
  return world;
}

}  // namespace mmog::trace
