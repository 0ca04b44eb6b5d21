#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace mmog::trace {

/// A population-shock event in the trace (§III-B / Fig 2 of the paper).
struct EventSpec {
  enum class Kind {
    /// A highly unpopular operator decision: the active concurrent player
    /// count drops by `magnitude` (fraction of its value) in under a day,
    /// then — after the operators amend the change `recovery_delay_steps`
    /// later — recovers to `recovery_level` of the pre-event value.
    kUnpopularDecision,
    /// A content release: the count surges by `magnitude` over the first
    /// days and relaxes back over roughly a week.
    kContentRelease,
  };
  Kind kind = Kind::kContentRelease;
  std::size_t step = 0;                 ///< sample index where it begins
  double magnitude = 0.5;               ///< drop or surge fraction
  std::size_t recovery_delay_steps = 0; ///< unpopular decision: steps until amended
  double recovery_level = 0.95;         ///< unpopular decision: recovery target
};

/// One region of the synthetic world.
struct RegionSpec {
  std::string name = "Europe";
  int utc_offset_hours = 0;
  std::size_t server_groups = 40;
  /// Average demand per server group at the diurnal baseline, in players.
  double base_players_per_group = 1000.0;
  /// Weekend demand multiplier; 1.0 disables the weekend effect (per
  /// §III-C, about one third of the real traces show none).
  double weekend_multiplier = 1.0;
  /// Fraction of groups pegged at ~95-100 % capacity around the clock
  /// (§III-C reports 2-5 % of servers always at 95 %).
  double always_full_fraction = 0.03;
};

/// Configuration of the synthetic RuneScape-like trace generator. This is
/// the substitution for the real RuneScape traces (see DESIGN.md §2): it
/// reproduces the statistical properties the paper reports — diurnal cycles
/// with a 24 h autocorrelation peak, strong peak-hour variation (median ≈
/// 1.5x minimum), diurnal IQR cycles, rare short outages, and the Fig 2
/// population-shock events.
struct RuneScapeModelConfig {
  std::size_t steps = util::samples_per_days(16);  ///< 2 weeks + 2 lead days
  std::uint64_t seed = 1;
  std::vector<RegionSpec> regions;
  std::vector<EventSpec> events;

  /// Diurnal shape: amplitude of the daily sinusoid relative to the mean
  /// (0.35 yields a peak-hour median roughly 1.5x the nightly minimum).
  double diurnal_amplitude = 0.35;
  /// Local hour of peak demand (late afternoon / evening, per §III).
  double peak_hour = 19.5;
  /// Relative standard deviation of the innovations of the multiplicative
  /// region-level noise. The noise is AR(1) (see noise_persistence): player
  /// interactions create sustained minutes-long load wiggles (§III-D), not
  /// white noise, and that short-term structure is what separates smoothing
  /// predictors from one-step chasers in §V-B.
  double region_noise = 0.012;
  /// AR(1) coefficient of the region-level noise (0 = white noise).
  double noise_persistence = 0.2;
  /// Relative standard deviation of per-group white noise (players hopping
  /// between worlds at the 2-minute sampling interval).
  double group_noise = 0.02;
  /// Expected global activity waves per day: short game-wide demand surges
  /// (scheduled activities, world events) that ramp up over minutes and
  /// relax back. These fast sustained ramps are the §III "more dynamic than
  /// previously believed" component of the workload and are what separates
  /// an extrapolating predictor from one-step chasers in §V-B.
  double waves_per_day = 8.0;
  /// Mean relative amplitude of an activity wave (individual waves vary).
  double wave_amplitude = 0.18;
  /// Rise duration bounds of a wave, in samples; the decay is about twice
  /// the rise.
  std::size_t wave_min_rise_steps = 4;
  std::size_t wave_max_rise_steps = 10;
  /// Expected outages per group per simulated week (short-lived, §III-C).
  double outages_per_group_week = 0.15;
  /// Outage duration bounds, in samples (2-minute steps).
  std::size_t outage_min_steps = 2;
  std::size_t outage_max_steps = 10;

  /// The five-region default world used throughout the paper's evaluation.
  static RuneScapeModelConfig paper_default();

  /// Rescales the per-region `server_groups` so they sum to `total_groups`
  /// while keeping the regions' relative sizes (largest-remainder
  /// apportionment; every region keeps at least one group). The per-group
  /// statistical properties are untouched, so a scaled world is the same
  /// workload shape at a different fleet size — the knob behind
  /// `mmog_tracegen --groups`, perfbench's `fleet` workload and the
  /// allocs/step gate's sweep cells.
  void scale_to_groups(std::size_t total_groups);

  /// Total server groups across all regions.
  std::size_t total_groups() const noexcept;
};

/// Generates the synthetic world trace.
WorldTrace generate(const RuneScapeModelConfig& config);

/// The multiplicative event envelope applied to the global demand at `step`
/// (exposed for tests and for the Fig 2 harness annotations).
double event_multiplier(const std::vector<EventSpec>& events, std::size_t step);

}  // namespace mmog::trace
