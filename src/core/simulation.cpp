#include "core/simulation.hpp"

#include "core/alloc_pool.hpp"
#include "core/predict_phase.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>

namespace mmog::core {
namespace {

constexpr std::uint8_t kNotACandidate = 0xFF;

/// One predicted sub-stream: a server group's player counts plus its online
/// predictor (§IV-B: prediction happens per sub-zone; the region estimate is
/// the sum of the per-zone predictions).
struct GroupStream {
  const util::TimeSeries* players = nullptr;
  std::unique_ptr<predict::Predictor> predictor;
  double last_prediction = 0.0;
  double abs_error_ewma = 0.0;  ///< recent one-step |error| of the predictor
};

/// The unit at which a game operator requests resources: one game in one
/// geographic region (§II-C: operators submit aggregate requests to data
/// centers; §V-E routes them by the region's location).
struct DemandUnit {
  std::size_t game_id = 0;
  std::string region_name;
  std::vector<GroupStream> groups;
  /// Live allocations, as an insertion-ordered list of AllocPool slots.
  AllocPool::List allocs;
  /// Invariant: always the exact in-insertion-order sum of the live
  /// allocations' amounts (see AllocPool::sum_amounts) — the conservation
  /// property the release paths re-establish after every removal.
  util::ResourceVector allocated{};
  std::vector<std::size_t> candidates;  ///< matcher-ordered DC indices
  /// Healthy distance class per data center (kNotACandidate when the
  /// center is outside the game's latency tolerance); latency-degradation
  /// faults worsen the effective class against `tolerance`.
  std::vector<std::uint8_t> base_class_by_dc;
  dc::DistanceClass tolerance = dc::DistanceClass::kVeryFar;
  /// Retry bookkeeping for the resilience policy (unused when disabled).
  fault::BackoffTracker backoff;
  int priority = 0;
};

/// Up-front configuration validation: every inconsistency fails loudly
/// here instead of silently no-opting deep in the run.
void validate_config(const SimulationConfig& config) {
  if (config.games.empty()) {
    throw std::invalid_argument("simulate: no games configured");
  }
  if (config.mode == AllocationMode::kDynamic && !config.predictor) {
    throw std::invalid_argument("simulate: dynamic mode needs a predictor");
  }
  if (config.datacenters.empty()) {
    throw std::invalid_argument("simulate: no data centers configured");
  }
  const std::size_t n_dcs = config.datacenters.size();
  for (const auto& outage : config.outages) {
    if (outage.dc_index >= n_dcs) {
      throw std::invalid_argument(
          "simulate: outage dc_index " + std::to_string(outage.dc_index) +
          " out of range (have " + std::to_string(n_dcs) +
          " data centers)");
    }
    if (outage.from_step >= outage.to_step) {
      throw std::invalid_argument(
          "simulate: outage window must satisfy from_step < to_step (got [" +
          std::to_string(outage.from_step) + ", " +
          std::to_string(outage.to_step) + "))");
    }
  }
  for (const auto& spec : config.faults) fault::validate(spec, n_dcs);
  if (!(config.safety_factor >= 0.0)) {
    throw std::invalid_argument("simulate: safety_factor must be >= 0");
  }
  if (!(config.event_threshold_pct >= 0.0)) {
    throw std::invalid_argument("simulate: event_threshold_pct must be >= 0");
  }
  if (config.resilience.standby_reserve_servers < 0.0) {
    throw std::invalid_argument(
        "simulate: standby_reserve_servers must be >= 0");
  }
}

/// The counter each offer-walk outcome bumps, indexed by obs::OfferOutcome
/// (a grant counts through its own path).
constexpr const char* kOfferCounters[] = {
    nullptr, "offer.rejected.outage", "offer.rejected.latency_degraded",
    "offer.rejected.backoff", "offer.rejected.bulk", "offer.rejected.amount",
    "alloc.grant_failed.transient"};
static_assert(std::size(kOfferCounters) ==
              std::size(obs::kOfferOutcomeNames));

/// The legacy outage windows as fault events.
std::vector<fault::FaultEvent> outage_events(const SimulationConfig& config) {
  std::vector<fault::FaultEvent> events;
  events.reserve(config.outages.size());
  for (const auto& outage : config.outages) {
    events.push_back({fault::FaultKind::kOutage, outage.dc_index,
                      outage.from_step, outage.to_step, 1.0});
  }
  return events;
}

/// Release-pass scratch: one releasable allocation of a unit, sorted
/// CPU-descending (ties by list position) for the single-pass release.
struct ReleaseCand {
  double cpu;
  std::uint32_t ordinal;
  AllocPool::Index slot;
};

/// The provisioning loop's whole state — every value carried from one step
/// to the next and the scratch the phases reuse — with each phase as a
/// member. simulate() builds one, restores it or allocates statically, and
/// steps it to the horizon.
struct SimState {
  explicit SimState(const SimulationConfig& cfg) : config(cfg) {
    if (rec) {
      rec->gauge("sim.steps", static_cast<double>(steps));
      rec->gauge("sim.units", static_cast<double>(units.size()));
      rec->gauge("sim.groups", static_cast<double>(total_groups));
      rec->gauge("sim.datacenters", static_cast<double>(ledgers.size()));
      if (have_faults) {
        rec->gauge("fault.windows",
                   static_cast<double>(schedule.events().size()));
      }
      rec->gauge("sim.predict_threads",
                 static_cast<double>(predict_runner.threads()));
    }
    // Resource profiler: throughput and RSS sampled every
    // kPublishEverySteps steps and on the last one (keep_books).
    // Observational only — attached or not, outcomes are byte-identical.
    if (profiler) profiler->begin_run(total_groups);
    release_order.reserve(64);
    if (audit) audit_batch.reserve(units.size() * 2);
    result.fault_events = schedule.events();
    result.games.resize(config.games.size());
    for (std::size_t g = 0; g < config.games.size(); ++g) {
      result.games[g].name = config.games[g].name;
    }
  }

  const SimulationConfig& config;
  obs::Recorder* const rec = config.recorder;
  obs::AuditTrail* const audit = rec ? rec->audit() : nullptr;
  obs::ResourceProfiler* const profiler = rec ? rec->profiler() : nullptr;
  const fault::ResiliencePolicy& res_policy = config.resilience;
  const bool resilient = res_policy.enabled;
  const bool dynamic = config.mode == AllocationMode::kDynamic;

  std::vector<dc::DataCenterLedger> ledgers{config.datacenters.begin(),
                                            config.datacenters.end()};
  std::vector<DemandUnit> units = build_units();
  const std::size_t total_groups = std::accumulate(
      units.begin(), units.end(), std::size_t{0},
      [](auto n, const auto& u) { return n + u.groups.size(); });
  const std::size_t steps = run_length();
  // Expand the fault processes over the run's horizon; the legacy outage
  // windows fold into the same schedule. Empty schedule = the exact
  // fault-free behavior this simulator always had.
  const fault::FaultSchedule schedule = fault::FaultSchedule::generate(
      config.faults, ledgers.size(), steps, outage_events(config));
  const bool have_faults = !schedule.empty();
  // The shared allocation arena, sized so every unit's warm state fits
  // without slab growth (4 allocations per candidate).
  AllocPool alloc_pool{std::accumulate(
      units.begin(), units.end(), std::size_t{0},
      [](auto n, const auto& u) { return n + u.candidates.size() * 4; })};
  // Service order: stable by priority when the extension is enabled,
  // otherwise first-come (flattening order).
  const std::vector<std::size_t> order = service_order();
  // Predict-phase scheduler: a flat, service-ordered view of every group
  // stream, sharded contiguously across `config.threads` workers. Predict
  // is the only sharded phase: each worker writes only its own slots'
  // `last_prediction`, and everything after it runs serially on this
  // thread in fixed order, so any thread count reproduces the serial run
  // bit for bit. Pointers stay valid because `units` and each
  // `unit.groups` are fully built above and never resized again.
  ParallelPredictor predict_runner{dynamic ? config.threads : 1};
  const std::vector<PredictSlot> predict_slots = flatten_predictors();

  std::size_t next_allocation_id = 1;
  std::size_t start_step = 0;
  std::size_t completed = steps;
  SimulationResult result;
  // Per-DC usage accumulators.
  std::vector<double> dc_cpu_sum = std::vector<double>(ledgers.size(), 0.0);
  std::vector<double> dc_cpu_peak = std::vector<double>(ledgers.size(), 0.0);
  std::vector<std::map<std::string, double>> dc_origin_sum =
      std::vector<std::map<std::string, double>>(ledgers.size());
  // SLA accounting: one tracker per game plus the global signal; per-step
  // shed flags mark games deliberately degraded by the resilience policy.
  SlaTracker overall_sla;
  std::vector<SlaTracker> game_sla =
      std::vector<SlaTracker>(config.games.size());
  std::vector<char> game_shed = std::vector<char>(config.games.size(), 0);

  // Reused per-step scratch, so the step phases allocate nothing (see the
  // hot-begin regions and tests/core/alloc_gate_test.cpp): padded demand
  // and fault losses per unit, per-game metrics, release candidates.
  std::vector<util::ResourceVector> demands =
      std::vector<util::ResourceVector>(units.size());
  std::vector<char> lost_capacity = std::vector<char>(units.size(), 0);
  std::vector<StepMetrics> per_game =
      std::vector<StepMetrics>(config.games.size());
  std::vector<ReleaseCand> release_order;
  // Decision-audit scratch (only touched when the recorder has an audit
  // trail attached): the step's records in occurrence order. Actual player
  // counts are backfilled per unit once the step's load materializes in the
  // account phase, then the batch is flushed to the trail in one lock
  // acquisition. Everything runs on the simulation thread, so trails are
  // byte-identical at any `config.threads` value.
  std::vector<obs::AuditRecord> audit_batch;
  std::vector<std::vector<std::size_t>> audit_backfill =
      std::vector<std::vector<std::size_t>>(units.size());
  std::vector<double> audit_predicted = std::vector<double>(units.size());
  std::vector<double> audit_margin = std::vector<double>(units.size());
  // Live telemetry: names fixed up front, so per-step sampling rewrites
  // values and never allocates. Empty unless the recorder has a time-series
  // store or alert engine; sampling never feeds back into the run.
  std::vector<obs::Sample> live_samples = live_sample_slots();

  /// One demand unit per (game, region), with each unit's candidate data
  /// centers resolved (matching criteria of §II-C).
  std::vector<DemandUnit> build_units() const {
    const Matcher matcher(config.datacenters);
    std::vector<DemandUnit> out;
    for (std::size_t g = 0; g < config.games.size(); ++g) {
      const auto& game = config.games[g];
      for (const auto& region : game.workload.regions) {
        if (region.groups.empty()) continue;
        const auto site = dc::region_site(region.name);
        DemandUnit unit;
        unit.game_id = g;
        unit.region_name = region.name;
        unit.candidates =
            matcher.candidates(site.location, game.latency_tolerance);
        unit.tolerance = game.latency_tolerance;
        unit.base_class_by_dc.assign(ledgers.size(), kNotACandidate);
        for (const std::size_t cand : unit.candidates) {
          unit.base_class_by_dc[cand] = static_cast<std::uint8_t>(
              dc::classify_distance(matcher.distance_km(site.location, cand)));
        }
        unit.backoff = fault::BackoffTracker(res_policy.base_backoff_steps,
                                             res_policy.max_backoff_steps);
        if (rec) {
          // Matching criterion 2 (§II-C, geographic proximity): centers
          // outside the game's latency tolerance are rejected up front,
          // once per (game, region) request stream.
          rec->count("offer.rejected.latency",
                     static_cast<double>(ledgers.size() -
                                         unit.candidates.size()));
        }
        unit.priority = game.priority;
        for (const auto& sg : region.groups) {
          GroupStream stream;
          stream.players = &sg.players;
          if (dynamic) stream.predictor = config.predictor();
          unit.groups.push_back(std::move(stream));
        }
        out.push_back(std::move(unit));
      }
    }
    return out;
  }

  /// The configured step count, capped by the shortest group series.
  std::size_t run_length() const {
    std::size_t horizon = std::numeric_limits<std::size_t>::max();
    for (const auto& unit : units) {
      for (const auto& stream : unit.groups) {
        horizon = std::min(horizon, stream.players->size());
      }
    }
    if (horizon == 0 || horizon == std::numeric_limits<std::size_t>::max()) {
      throw std::invalid_argument("simulate: empty workload");
    }
    return config.steps == 0 ? horizon : std::min(config.steps, horizon);
  }

  std::vector<std::size_t> service_order() const {
    std::vector<std::size_t> out(units.size());
    std::iota(out.begin(), out.end(), std::size_t{0});
    if (config.prioritize_by_interaction) {
      std::stable_sort(out.begin(), out.end(),
                       [&](std::size_t a, std::size_t b) {
                         return units[a].priority > units[b].priority;
                       });
    }
    return out;
  }

  std::vector<PredictSlot> flatten_predictors() {
    std::vector<PredictSlot> slots;
    if (!dynamic) return slots;
    slots.reserve(total_groups);
    for (const std::size_t idx : order) {
      for (auto& stream : units[idx].groups) {
        slots.push_back({stream.predictor.get(), &stream.last_prediction});
      }
    }
    return slots;
  }

  std::vector<obs::Sample> live_sample_slots() const {
    if (rec == nullptr || !rec->live()) return {};
    std::vector<obs::Sample> out = {
        {"core.allocated_cpu", 0.0},    {"core.demand_cpu", 0.0},
        {"core.underalloc_frac", 0.0},  {"core.overalloc_frac", 0.0},
        {"core.predictor_abs_err", 0.0}, {"core.unplaced_cpu_unit_steps", 0.0},
        {"sla.availability_min_pct", 100.0}};
    for (const auto& game : config.games) {
      out.push_back({"sla.availability_pct." + game.name, 100.0});
    }
    return out;
  }

  /// A latency-degradation fault pushes the center's effective distance
  /// class beyond the unit's tolerance: no new grants, and hosted servers
  /// must migrate away.
  bool latency_violated(const DemandUnit& unit, std::size_t d,
                        std::size_t step) const {
    if (!have_faults) return false;
    const std::size_t penalty = schedule.latency_penalty_at(d, step);
    if (penalty == 0) return false;
    const std::uint8_t base = unit.base_class_by_dc[d];
    if (base == kNotACandidate) return true;
    return base + penalty > static_cast<std::size_t>(unit.tolerance);
  }

  /// The header every audit record of unit `idx` starts from; match and
  /// replace records also carry the pad phase's numbers.
  obs::AuditRecord record(obs::AuditKind kind, std::size_t idx,
                          std::size_t step) const {
    const DemandUnit& unit = units[idx];
    obs::AuditRecord ar;
    ar.step = step;
    ar.kind = kind;
    ar.game = static_cast<std::uint32_t>(unit.game_id);
    ar.region = unit.region_name;
    ar.held_cpu = unit.allocated.cpu();
    if (kind == obs::AuditKind::kMatch || kind == obs::AuditKind::kReplace) {
      ar.predicted_players = audit_predicted[idx];
      ar.margin_cpu = audit_margin[idx];
      ar.demand_cpu = demands[idx].cpu();
    }
    return ar;
  }

  // mmog-lint: hot-begin(allocate)
  /// Walks the unit's candidates in matcher order, renting until `need_in`
  /// is covered, and returns the unmet rest. `ar` collects one AuditOffer
  /// per visited candidate (nullptr = audit off: the walk pays one pointer
  /// test per branch).
  util::ResourceVector try_allocate(DemandUnit& unit,
                                    const util::ResourceVector& need_in,
                                    std::size_t step, std::size_t hold_steps,
                                    obs::AuditRecord* ar) {
    util::ResourceVector need = need_in.clamped_non_negative();
    if (ar) ar->offers.reserve(unit.candidates.size());
    for (const std::size_t cand : unit.candidates) {
      // Satisfied: stop the walk before touching another candidate, so a
      // met need never records phantom rejections.
      double outstanding = 0.0;
      for (double v : need.v) outstanding += v;
      if (outstanding <= 1e-9) break;
      const auto dc32 = static_cast<std::uint32_t>(cand);
      const auto reject = [&](obs::OfferOutcome outcome, std::size_t until) {
        if (rec) rec->count(kOfferCounters[static_cast<int>(outcome)]);
        if (ar) ar->offers.push_back({dc32, outcome, 0.0, until});
      };
      if (have_faults && schedule.outage_at(cand, step)) {
        reject(obs::OfferOutcome::kRejectedOutage, 0);
        continue;
      }
      if (latency_violated(unit, cand, step)) {
        // Matching criterion 2 re-evaluated under degradation: the center
        // is temporarily too far for this game.
        reject(obs::OfferOutcome::kRejectedLatencyDegraded, 0);
        continue;
      }
      if (resilient && unit.backoff.excluded(cand, step)) {
        reject(obs::OfferOutcome::kRejectedBackoff,
               unit.backoff.excluded_until(cand));
        continue;
      }
      auto& ledger = ledgers[cand];
      const auto& policy = ledger.spec().policy;
      const auto amount = offer_amount(need, ledger.free(), policy);
      // CPU drives placement: when CPU is needed, a grant without CPU only
      // wastes bandwidth; and an empty offer is no offer.
      if (need.cpu() > 1e-9 && amount.cpu() <= 1e-9) {
        // Matching criterion 3 (§II-C, offer granularity): the policy's CPU
        // bulk cannot produce a usable offer from this center's free pool.
        reject(obs::OfferOutcome::kRejectedBulk, 0);
        continue;
      }
      double total = 0.0;
      for (double v : amount.v) total += v;
      if (total <= 1e-9) {
        reject(obs::OfferOutcome::kRejectedAmount, 0);
        continue;
      }
      if (have_faults && schedule.flap_at(cand, step)) {
        // Transient grant failure: the offer was accepted but the rented
        // resources never materialize. The request retries elsewhere.
        reject(obs::OfferOutcome::kGrantFlapped,
               resilient ? unit.backoff.record_failure(cand, step) : 0);
        continue;
      }
      if (!ledger.grant(amount)) {
        // Matching criterion 1 (§II-C, amount fit): nothing left to offer.
        reject(obs::OfferOutcome::kRejectedAmount, 0);
        continue;
      }
      dc::Allocation alloc;
      alloc.id = next_allocation_id++;
      alloc.dc_index = cand;
      alloc.game_id = unit.game_id;
      alloc.amount = amount;
      alloc.start_step = step;
      alloc.usable_step = step + config.provisioning_delay_steps;
      alloc.earliest_release_step =
          hold_steps == std::numeric_limits<std::size_t>::max()
              ? hold_steps
              : step + std::max<std::size_t>(hold_steps,
                                             policy.time_bulk_steps());
      alloc_pool.acquire(unit.allocs, alloc);
      // Appending at the tail extends the in-order conservation sum by one
      // term, so += keeps `allocated` exactly Σ amounts.
      unit.allocated += amount;
      need = (need - amount).clamped_non_negative();
      if (resilient) unit.backoff.record_success(cand);
      if (ar) {
        ar->offers.push_back(
            {dc32, obs::OfferOutcome::kGranted, amount.cpu(), 0});
        if (ar->dc == obs::kAuditNoDc) {
          ar->dc = static_cast<std::int32_t>(cand);
        }
        ar->granted_cpu += amount.cpu();
      }
      if (rec) {
        rec->count("offer.matched");
        rec->count("alloc.granted");
        // Guarded so the arg strings are only built when a tracer consumes
        // them; instant() would drop them unseen below kSteps level.
        if (rec->tracing()) {
          rec->instant("alloc.granted", "alloc", step,
                       {{"dc", ledger.spec().name},
                        {"region", unit.region_name},
                        {"cpu", std::to_string(amount.cpu())},   // mmog-lint: allow(hot-string)
                        {"id", std::to_string(alloc.id)}});      // mmog-lint: allow(hot-string)
        }
      }
    }
    return need;  // unmet demand
  }

  /// Requests what unit `idx` still misses of its padded demand; when that
  /// cannot be placed and the policy allows, sheds lower-priority games
  /// and retries once. The shortfall counts as unplaced demand.
  util::ResourceVector acquire(std::size_t idx, std::size_t step,
                               obs::AuditRecord& ar) {
    DemandUnit& unit = units[idx];
    obs::AuditRecord* const trail = audit ? &ar : nullptr;
    const auto need = demands[idx] - unit.allocated;
    if (audit) ar.requested_cpu = need.clamped_non_negative().cpu();
    auto unmet = try_allocate(unit, need, step, 1, trail);
    if (unmet.cpu() > 1e-9 && resilient && res_policy.shed_low_priority) {
      // Total supply cannot cover demand: degrade lower-priority games to
      // keep this one whole.
      if (shed_for(unit, unmet, step)) {
        unmet = try_allocate(unit, unmet, step, 1, trail);
      }
    }
    if (audit) ar.unmet_cpu = unmet.cpu();
    result.unplaced_cpu_unit_steps += unmet.cpu();
    return unmet;
  }

  /// Force-releases one allocation (fault eviction or shedding), returning
  /// its resources to the ledger and recording why.
  void force_release(std::size_t unit_index, AllocPool::Index slot,
                     std::size_t step, const char* reason) {
    DemandUnit& unit = units[unit_index];
    const auto amount = alloc_pool.amount(slot);
    const std::size_t alloc_dc = alloc_pool.dc_index(slot);
    const std::size_t alloc_id = alloc_pool.id(slot);
    ledgers[alloc_dc].release(amount);
    if (audit) {
      auto ar = record(obs::AuditKind::kForceRelease, unit_index, step);
      ar.released_cpu = amount.cpu();
      ar.dc = static_cast<std::int32_t>(alloc_dc);
      ar.cause = reason;
      ar.alloc_id = alloc_id;
      audit_batch.push_back(std::move(ar));
    }
    if (rec) {
      rec->count("alloc.force_released");
      if (rec->tracing()) {
        rec->instant("alloc.force_released", "alloc", step,
                     {{"dc", ledgers[alloc_dc].spec().name},
                      {"cpu", std::to_string(amount.cpu())},  // mmog-lint: allow(hot-string)
                      {"id", std::to_string(alloc_id)},       // mmog-lint: allow(hot-string)
                      {"reason", reason}});
      }
    }
    alloc_pool.erase(unit.allocs, slot);
    // Recompute the exact in-order sum: subtract-and-clamp would let
    // `allocated` drift away from Σ amounts.
    unit.allocated = alloc_pool.sum_amounts(unit.allocs);
    if (resilient) unit.backoff.record_failure(alloc_dc, step);
  }

  /// The (unit, slot) of the newest allocation `eligible(unit, slot)`
  /// accepts — with `by_priority`, of the lowest-priority unit's newest;
  /// the unit is out of range when none qualifies.
  template <typename Eligible>
  std::pair<std::size_t, AllocPool::Index> pick_victim(
      bool by_priority, const Eligible& eligible) const {
    auto victim = std::pair{units.size(), AllocPool::kNil};
    int victim_priority = INT_MAX;
    std::size_t victim_id = 0;
    for (std::size_t u = 0; u < units.size(); ++u) {
      const int priority = by_priority ? units[u].priority : 0;
      for (auto a = units[u].allocs.head; a != AllocPool::kNil;
           a = alloc_pool.next(a)) {
        if (!eligible(u, a)) continue;
        const std::size_t id = alloc_pool.id(a);
        if (priority < victim_priority ||
            (priority == victim_priority && id > victim_id)) {
          victim = {u, a};
          victim_priority = priority;
          victim_id = id;
        }
      }
    }
    return victim;
  }

  /// Graceful degradation: make room for `needy` by force-releasing
  /// allocations of strictly lower-priority units hosted in its candidate
  /// centers — lowest priority first, newest allocation first. Returns true
  /// when anything was freed (the caller then retries the acquisition).
  bool shed_for(const DemandUnit& needy, const util::ResourceVector& need,
                std::size_t step) {
    const auto sheddable = [&](std::size_t u, AllocPool::Index a) {
      const std::size_t d = alloc_pool.dc_index(a);
      // Freeing capacity only helps where needy can actually rent.
      return &units[u] != &needy && units[u].priority < needy.priority &&
             needy.base_class_by_dc[d] != kNotACandidate &&
             !schedule.grants_blocked_at(d, step) &&
             !latency_violated(needy, d, step) &&
             !(resilient && needy.backoff.excluded(d, step));
    };
    double need_cpu = need.cpu();
    bool freed = false;
    while (need_cpu > 1e-9) {
      const auto [victim, slot] = pick_victim(true, sheddable);
      if (victim >= units.size()) break;
      const double freed_cpu = alloc_pool.amount(slot).cpu();
      game_shed[units[victim].game_id] = 1;
      if (rec) rec->count("resilience.shed");
      force_release(victim, slot, step, "shed");
      need_cpu -= freed_cpu;
      freed = true;
    }
    return freed;
  }
  // mmog-lint: hot-end

  /// Resume from a checkpoint: every config-derived structure was built
  /// normally; now overwrite each loop-carried value with the snapshot and
  /// start the loop at the saved boundary. Geometry and the expanded fault
  /// schedule are verified first — a checkpoint from a different
  /// configuration must fail loudly, never resume quietly.
  void restore(const CheckpointState& st) {
    const auto mismatch = [](const std::string& what) {
      throw std::invalid_argument(
          "simulate: checkpoint does not match the configuration (" + what +
          ")");
    };
    if (st.steps != steps || st.next_step > steps) mismatch("horizon");
    if (st.fault_events != schedule.events()) mismatch("fault schedule");
    if (st.ledgers.size() != ledgers.size()) mismatch("data centers");
    if (st.units.size() != units.size()) mismatch("demand units");
    if (st.game_sla.size() != config.games.size() ||
        st.game_step_metrics.size() != config.games.size()) {
      mismatch("games");
    }
    if (st.step_metrics.size() != st.next_step) mismatch("metrics length");
    for (std::size_t u = 0; u < units.size(); ++u) {
      const auto& uc = st.units[u];
      if (uc.game_id != units[u].game_id ||
          uc.region != units[u].region_name ||
          uc.groups.size() != units[u].groups.size()) {
        mismatch("unit " + std::to_string(u));
      }
    }
    for (std::size_t d = 0; d < ledgers.size(); ++d) {
      ledgers[d].restore(st.ledgers[d].in_use,
                         st.ledgers[d].capacity_fraction);
      dc_cpu_sum[d] = st.ledgers[d].cpu_sum;
      dc_cpu_peak[d] = st.ledgers[d].cpu_peak;
      dc_origin_sum[d] = st.ledgers[d].origin_sum;
    }
    for (std::size_t u = 0; u < units.size(); ++u) {
      DemandUnit& unit = units[u];
      const auto& uc = st.units[u];
      alloc_pool.assign(unit.allocs, uc.allocations);
      unit.allocated = uc.allocated;
      unit.backoff.restore_entries(uc.backoff);
      for (std::size_t s = 0; s < unit.groups.size(); ++s) {
        auto& stream = unit.groups[s];
        const auto& gc = uc.groups[s];
        if (stream.predictor) {
          if (gc.predictor != stream.predictor->name()) {
            mismatch("predictor of unit " + std::to_string(u));
          }
          stream.predictor->load_state(gc.state);
        } else if (!gc.predictor.empty() || !gc.state.empty()) {
          mismatch("predictor of unit " + std::to_string(u));
        }
        stream.last_prediction = gc.last_prediction;
        stream.abs_error_ewma = gc.abs_error_ewma;
      }
    }
    next_allocation_id = st.next_allocation_id;
    result.unplaced_cpu_unit_steps = st.unplaced_cpu_unit_steps;
    result.total_cost = st.total_cost;
    for (const auto& m : st.step_metrics) result.metrics.add(m);
    for (std::size_t g = 0; g < config.games.size(); ++g) {
      if (st.game_step_metrics[g].size() != st.next_step) {
        mismatch("metrics length of game " + std::to_string(g));
      }
      for (const auto& m : st.game_step_metrics[g]) {
        result.games[g].metrics.add(m);
      }
      game_sla[g].restore(st.game_sla[g]);
    }
    overall_sla.restore(st.overall_sla);
    if (rec) {
      // Apply counter *deltas*: this process already emitted the same
      // pre-loop counts the producing run did (unit-build offer
      // rejections), so adding totals verbatim would double them.
      const auto current = rec->snapshot().counters;
      for (const auto& [name, value] : st.counters) {
        const auto it = current.find(name);
        const double have = it == current.end() ? 0.0 : it->second;
        if (value > have) rec->count(name, value - have);
      }
    }
    if (audit && !st.audit_records.empty()) {
      // append_batch reassigns consecutive sequence numbers from 0, so the
      // preloaded prefix and every later record keep the original seqs.
      auto prefix = st.audit_records;
      audit->append_batch(prefix);
    }
    start_step = st.next_step;
  }

  /// Snapshot every loop-carried value at a step boundary (`next_step`
  /// steps are complete) and hand it to the sink. Runs on the simulation
  /// thread between steps, so no state is mid-mutation.
  void capture_checkpoint(std::size_t next_step) const {
    CheckpointState st;
    st.next_step = next_step;
    st.steps = steps;
    st.next_allocation_id = next_allocation_id;
    st.unplaced_cpu_unit_steps = result.unplaced_cpu_unit_steps;
    st.total_cost = result.total_cost;
    st.fault_events = schedule.events();
    st.ledgers.reserve(ledgers.size());
    for (std::size_t d = 0; d < ledgers.size(); ++d) {
      LedgerCheckpoint lc;
      lc.in_use = ledgers[d].in_use();
      lc.capacity_fraction = ledgers[d].capacity_fraction();
      lc.cpu_sum = dc_cpu_sum[d];
      lc.cpu_peak = dc_cpu_peak[d];
      lc.origin_sum = dc_origin_sum[d];
      st.ledgers.push_back(std::move(lc));
    }
    st.units.reserve(units.size());
    for (const auto& unit : units) {
      UnitCheckpoint uc;
      uc.game_id = unit.game_id;
      uc.region = unit.region_name;
      uc.allocated = unit.allocated;
      uc.allocations = alloc_pool.to_vector(unit.allocs);
      uc.backoff = unit.backoff.entries();
      uc.groups.reserve(unit.groups.size());
      for (const auto& stream : unit.groups) {
        GroupCheckpoint gc;
        if (stream.predictor) {
          gc.predictor = std::string(stream.predictor->name());
          stream.predictor->save_state(gc.state);
        }
        gc.last_prediction = stream.last_prediction;
        gc.abs_error_ewma = stream.abs_error_ewma;
        uc.groups.push_back(std::move(gc));
      }
      st.units.push_back(std::move(uc));
    }
    st.step_metrics = result.metrics.step_metrics();
    st.game_step_metrics.reserve(result.games.size());
    for (const auto& game : result.games) {
      st.game_step_metrics.push_back(game.metrics.step_metrics());
    }
    st.overall_sla = overall_sla.state();
    st.game_sla.reserve(game_sla.size());
    for (const auto& tracker : game_sla) {
      st.game_sla.push_back(tracker.state());
    }
    if (rec) st.counters = rec->snapshot().counters;
    if (audit) st.audit_records = audit->records();
    config.checkpoint_sink(st);
  }

  /// Static mode: the industry practice the paper compares against — every
  /// server group gets a dedicated machine sized for a full game server
  /// (capacity for `reference_players`), provisioned once and held forever.
  /// A restored run skips it: the one-shot allocations are in the snapshot.
  void allocate_static() {
    if (have_faults) {
      for (std::size_t d = 0; d < ledgers.size(); ++d) {
        ledgers[d].set_capacity_fraction(schedule.capacity_fraction_at(d, 0));
      }
    }
    const obs::PhaseScope scope(rec, "static_allocate", 0);
    for (std::size_t idx : order) {
      DemandUnit& unit = units[idx];
      const auto& load = config.games[unit.game_id].load;
      const auto full_servers = load.demand(load.reference_players) *
                                static_cast<double>(unit.groups.size());
      obs::AuditRecord ar;
      if (audit) {
        ar = record(obs::AuditKind::kStatic, idx, 0);
        ar.predicted_players = load.reference_players *
                               static_cast<double>(unit.groups.size());
        ar.demand_cpu = full_servers.cpu();
        ar.requested_cpu = full_servers.cpu();
      }
      const auto unmet =
          try_allocate(unit, full_servers, 0,
                       std::numeric_limits<std::size_t>::max(),
                       audit ? &ar : nullptr);
      result.unplaced_cpu_unit_steps +=
          unmet.cpu() * static_cast<double>(steps);
      if (audit) {
        ar.unmet_cpu = unmet.cpu();
        audit_backfill[idx].push_back(audit_batch.size());
        audit_batch.push_back(std::move(ar));
      }
    }
  }

  /// One two-minute provisioning interval, phase by phase. Returns false
  /// when a cooperative stop ends the run after this step.
  bool step(std::size_t t) {
    const obs::PhaseScope step_scope(rec, "step", t, "step");
    if (have_faults) apply_faults(t);
    std::fill(game_shed.begin(), game_shed.end(), 0);
    if (dynamic) {
      predict(t);
      pad(t);
      match(t);
    }
    inject_faults(t);
    if (resilient && dynamic) replace(t);
    const StepMetrics step_metrics = account(t);
    // Read once: the profiler, the checkpoint and the stop act on the same
    // answer.
    const bool stop_requested =
        config.stop_flag != nullptr &&
        config.stop_flag->load(std::memory_order_relaxed);
    keep_books(t, step_metrics, stop_requested || t + 1 == steps);
    // With step t complete, the clean boundary for checkpoint capture and
    // cooperative shutdown.
    if (config.checkpoint_sink &&
        ((config.checkpoint_every_steps > 0 &&
          (t + 1) % config.checkpoint_every_steps == 0) ||
         stop_requested)) {
      const obs::PhaseScope scope(rec, "checkpoint", t);
      capture_checkpoint(t + 1);
    }
    if (!stop_requested) return true;
    completed = t + 1;
    result.interrupted = true;
    return false;
  }

  /// Apply this step's fault state: capacity fractions on every ledger,
  /// begin/end markers and a downed-center gauge for the recorder.
  void apply_faults(std::size_t t) {
    for (std::size_t d = 0; d < ledgers.size(); ++d) {
      ledgers[d].set_capacity_fraction(schedule.capacity_fraction_at(d, t));
    }
    if (!rec) return;
    for (const auto& ev : schedule.events()) {
      if (ev.from_step == t) {
        rec->count("fault.begun");
        rec->instant("fault.begin", "fault", t,
                     {{"kind", std::string(fault_kind_name(ev.kind))},
                      {"dc", ledgers[ev.dc_index].spec().name},
                      {"severity", std::to_string(ev.severity)},
                      {"until_step", std::to_string(ev.to_step)}});
      }
      if (ev.to_step == t) {
        rec->instant("fault.end", "fault", t,
                     {{"kind", std::string(fault_kind_name(ev.kind))},
                      {"dc", ledgers[ev.dc_index].spec().name}});
      }
    }
    double down = 0.0;
    for (std::size_t d = 0; d < ledgers.size(); ++d) {
      if (schedule.outage_at(d, t)) down += 1.0;
    }
    if (down > 0.0) rec->count("fault.dc_down_steps", down);
  }

  /// Phase 1 — predict: one online prediction per server group (§IV-B),
  /// sharded across workers when config.threads > 1 (the phase is the
  /// provisioning loop's scaling bottleneck, Fig. 6). run() joins all
  /// shards before returning, so phase 2 always reads complete slots.
  void predict(std::size_t t) {
    // mmog-lint: hot-begin(predict)
    const obs::PhaseScope scope(rec, "predict", t);
    predict_runner.run(predict_slots, rec);
    if (rec) rec->count("predict.issued", static_cast<double>(total_groups));
    // mmog-lint: hot-end
  }

  /// Phase 2 — safety padding: region demand = sum of per-group
  /// predictions through the (nonlinear) load model, each padded by the
  /// predictor's own recent error (the §V-C over-allocation mechanism).
  void pad(std::size_t t) {
    // mmog-lint: hot-begin(pad)
    const obs::PhaseScope scope(rec, "pad", t);
    for (std::size_t idx : order) {
      DemandUnit& unit = units[idx];
      const auto& load = config.games[unit.game_id].load;
      util::ResourceVector demand{};
      for (const auto& stream : unit.groups) {
        const double padded = stream.last_prediction +
                              config.safety_factor * stream.abs_error_ewma;
        demand += load.demand(padded);
      }
      if (resilient && res_policy.standby_reserve_servers > 0.0) {
        // N+k standby reserve: hold spare full servers so losing up to
        // k servers' worth of rented capacity costs no shortfall.
        demand += load.demand(load.reference_players) *
                  res_policy.standby_reserve_servers;
      }
      demands[idx] = demand;
      if (audit) {
        // The safety margin (§V-C) is whatever the padding added on top
        // of the raw prediction through the load model — including the
        // N+k standby reserve when enabled.
        double predicted = 0.0;
        util::ResourceVector raw{};
        for (const auto& stream : unit.groups) {
          predicted += stream.last_prediction;
          raw += load.demand(stream.last_prediction);
        }
        audit_predicted[idx] = predicted;
        audit_margin[idx] = demand.cpu() - raw.cpu();
      }
      if (rec) {
        rec->count("request.padded");
        if (rec->detail()) {
          rec->detail_instant("request.padded", "demand", t,
                              {{"region", unit.region_name},
                               {"cpu", std::to_string(demand.cpu())}});  // mmog-lint: allow(hot-string)
        }
      }
    }
    // mmog-lint: hot-end
  }

  /// Phase 3 — matching: release what the prediction no longer needs,
  /// then acquire the missing difference (§II-C request-offer matching),
  /// one serial walk in service order. "match" and "match_commit" time the
  /// same loop; both scopes stay because the allocs/step gate and
  /// perfbench read each of them.
  void match(std::size_t t) {
    // mmog-lint: hot-begin(match)
    const obs::PhaseScope scope(rec, "match", t);
    const obs::PhaseScope commit_scope(rec, "match_commit", t);
    for (std::size_t idx : order) {
      DemandUnit& unit = units[idx];
      const auto& demand = demands[idx];
      // The conservation invariant must have survived every mutation
      // since the last commit (grants, evictions, shedding).
      assert(unit.allocated == alloc_pool.sum_amounts(unit.allocs));
      obs::AuditRecord ar;
      if (audit) ar = record(obs::AuditKind::kMatch, idx, t);

      // Release expired allocations no longer needed, largest first so
      // coarse chunks go back to the pool as soon as possible. Releasing
      // only shrinks `allocated`, so a candidate whose removal stops
      // covering demand once never becomes feasible again: one pass over
      // a CPU-descending order (ties by list position) suffices.
      release_order.clear();
      std::uint32_t ordinal = 0;
      for (auto a = unit.allocs.head; a != AllocPool::kNil;
           a = alloc_pool.next(a), ++ordinal) {
        if (!alloc_pool.releasable_at(a, t)) continue;
        const double cpu = alloc_pool.amount(a).cpu();
        // A zero-CPU allocation frees nothing and is never released.
        if (cpu <= 0.0) continue;
        release_order.push_back({cpu, ordinal, a});
      }
      std::sort(release_order.begin(), release_order.end(),
                [](const ReleaseCand& a, const ReleaseCand& b) {
                  if (a.cpu != b.cpu) return a.cpu > b.cpu;
                  return a.ordinal < b.ordinal;
                });
      for (const ReleaseCand& cand : release_order) {
        const auto amount = alloc_pool.amount(cand.slot);
        // No clamp before covers(): `allocated` is the exact in-order
        // sum of non-negative amounts, so subtracting one member can
        // never produce a negative component.
        const auto rest = unit.allocated - amount;
        if (!rest.covers(demand)) continue;
        const std::size_t alloc_dc = alloc_pool.dc_index(cand.slot);
        ledgers[alloc_dc].release(amount);
        if (rec) {
          rec->count("alloc.released");
          if (rec->tracing()) {
            rec->instant(
                "alloc.released", "alloc", t,
                {{"dc", ledgers[alloc_dc].spec().name},
                 {"cpu", std::to_string(amount.cpu())},  // mmog-lint: allow(hot-string)
                 {"id", std::to_string(alloc_pool.id(cand.slot))}});  // mmog-lint: allow(hot-string)
          }
        }
        alloc_pool.erase(unit.allocs, cand.slot);
        unit.allocated = alloc_pool.sum_amounts(unit.allocs);
        if (audit) ar.released_cpu += amount.cpu();
      }

      // Acquire what the prediction says is missing.
      if (!unit.allocated.covers(demand)) acquire(idx, t, ar);
      // Only decisions that acted make a record — a unit whose holding
      // already matches its demand stays silent, keeping trails compact.
      if (audit && (ar.released_cpu > 0.0 || ar.requested_cpu > 0.0)) {
        audit_backfill[idx].push_back(audit_batch.size());
        audit_batch.push_back(std::move(ar));
      }
    }
    // mmog-lint: hot-end
  }

  /// Failure injection: a center going down mid-interval takes its
  /// allocations with it; without the resilience policy the operator can
  /// only re-place the demand at the next 2-minute step, which is the
  /// shortfall the metrics observe.
  void inject_faults(std::size_t t) {
    // mmog-lint: hot-begin(fault-inject)
    std::fill(lost_capacity.begin(), lost_capacity.end(), 0);
    if (!have_faults) return;
    const obs::PhaseScope scope(rec, "fault_inject", t);
    for (std::size_t u = 0; u < units.size(); ++u) {
      DemandUnit& unit = units[u];
      // Newest-first: grab prev before the erase unlinks the slot.
      for (auto a = unit.allocs.tail; a != AllocPool::kNil;) {
        const auto before = alloc_pool.prev(a);
        const std::size_t d = alloc_pool.dc_index(a);
        const char* reason = nullptr;
        if (schedule.outage_at(d, t)) {
          reason = "outage";
        } else if (latency_violated(unit, d, t)) {
          reason = "latency";
        }
        if (reason != nullptr) {
          force_release(u, a, t, reason);
          lost_capacity[u] = 1;
        }
        a = before;
      }
    }
    // Partial capacity loss: evict newest-first until the survivors fit
    // into the degraded capacity (no preemption granularity below one
    // allocation, §II-B).
    for (std::size_t d = 0; d < ledgers.size(); ++d) {
      const auto hosted_here = [&](std::size_t, AllocPool::Index a) {
        return alloc_pool.dc_index(a) == d;
      };
      while (ledgers[d].over_capacity()) {
        const auto [victim, slot] = pick_victim(false, hosted_here);
        if (victim >= units.size()) break;
        force_release(victim, slot, t, "capacity");
        lost_capacity[victim] = 1;
      }
    }
    // mmog-lint: hot-end
  }

  /// Resilient re-placement: what a fault took this step is re-requested
  /// within the same 2-minute interval — the failed center is excluded by
  /// its backoff window, so the walk goes straight to the survivors.
  void replace(std::size_t t) {
    bool any_lost = false;
    for (const char lost : lost_capacity) any_lost |= (lost != 0);
    if (!any_lost) return;
    // mmog-lint: hot-begin(replace)
    const obs::PhaseScope scope(rec, "replace", t);
    for (std::size_t idx : order) {
      if (!lost_capacity[idx]) continue;
      if (units[idx].allocated.covers(demands[idx])) continue;
      if (rec) rec->count("resilience.retry");
      obs::AuditRecord ar;
      if (audit) ar = record(obs::AuditKind::kReplace, idx, t);
      const auto unmet = acquire(idx, t, ar);
      if (rec && unmet.cpu() <= 1e-9) rec->count("resilience.replaced");
      if (audit) {
        audit_backfill[idx].push_back(audit_batch.size());
        audit_batch.push_back(std::move(ar));
      }
    }
    // mmog-lint: hot-end
  }

  /// Phase 4 — metric accounting: the actual load materializes; score the
  /// step (globally and per game) and feed each predictor its observation.
  StepMetrics account(std::size_t t) {
    // mmog-lint: hot-begin(account)
    const obs::PhaseScope scope(rec, "account", t);
    StepMetrics step_metrics;
    step_metrics.machines = total_groups;
    std::fill(per_game.begin(), per_game.end(), StepMetrics{});
    for (std::size_t u = 0; u < units.size(); ++u) {
      DemandUnit& unit = units[u];
      const auto& load = config.games[unit.game_id].load;
      util::ResourceVector lambda{};
      double actual_players_total = 0.0;
      for (auto& stream : unit.groups) {
        const double actual = (*stream.players)[t];
        actual_players_total += actual;
        lambda += load.demand(actual);
        if (stream.predictor) {
          constexpr double kErrorEwmaAlpha = 0.05;
          stream.abs_error_ewma =
              (1.0 - kErrorEwmaAlpha) * stream.abs_error_ewma +
              kErrorEwmaAlpha * std::abs(actual - stream.last_prediction);
          stream.predictor->observe(actual);
        }
      }
      // Only allocations past their setup delay serve load.
      util::ResourceVector usable = unit.allocated;
      if (config.provisioning_delay_steps > 0) {
        usable = {};
        for (auto a = unit.allocs.head; a != AllocPool::kNil;
             a = alloc_pool.next(a)) {
          if (alloc_pool.usable_at(a, t)) usable += alloc_pool.amount(a);
        }
      }
      if (audit) {
        // The step's decisions were made on predictions; now the actual
        // load is known, close the loop in their records.
        for (const std::size_t rec_idx : audit_backfill[u]) {
          audit_batch[rec_idx].actual_players = actual_players_total;
        }
      }
      step_metrics.allocated += usable;
      step_metrics.used += lambda;
      auto& game_step = per_game[unit.game_id];
      game_step.allocated += usable;
      game_step.used += lambda;
      game_step.machines += unit.groups.size();
      for (std::size_t i = 0; i < util::kResourceKinds; ++i) {
        const double short_i = std::min(usable.v[i] - lambda.v[i], 0.0);
        step_metrics.shortfall.v[i] += short_i;
        game_step.shortfall.v[i] += short_i;
      }
    }
    if (rec &&
        step_metrics.significant_under_allocation(config.event_threshold_pct)) {
      rec->count("event.under_allocation");
      if (rec->tracing()) {
        rec->instant(
            "event.under_allocation", "event", t,
            {{"under_pct",
              std::to_string(  // mmog-lint: allow(hot-string)
                  step_metrics.under_allocation_pct(
                      util::ResourceKind::kCpu))}});
      }
    }
    result.metrics.add(step_metrics);
    overall_sla.observe(
        step_metrics.significant_under_allocation(config.event_threshold_pct));
    for (std::size_t g = 0; g < config.games.size(); ++g) {
      result.games[g].metrics.add(per_game[g]);
      const auto transition = game_sla[g].observe(
          per_game[g].significant_under_allocation(config.event_threshold_pct),
          game_shed[g] != 0);
      if (rec && have_faults &&
          transition != SlaTracker::Transition::kNone) {
        rec->instant(transition == SlaTracker::Transition::kBreachBegan
                         ? "sla.breach.begin"
                         : "sla.breach.end",
                     "sla", t, {{"game", config.games[g].name}});
      }
    }
    return step_metrics;
    // mmog-lint: hot-end
  }

  void sample_live(std::size_t t, const StepMetrics& step_metrics) {
    if (live_samples.empty()) return;
    live_samples[0].value = step_metrics.allocated.cpu();
    live_samples[1].value = step_metrics.used.cpu();
    live_samples[2].value =
        -step_metrics.under_allocation_pct(util::ResourceKind::kCpu) / 100.0;
    live_samples[3].value =
        step_metrics.over_allocation_pct(util::ResourceKind::kCpu) / 100.0;
    double err_sum = 0.0;
    for (const auto& unit : units) {
      for (const auto& stream : unit.groups) err_sum += stream.abs_error_ewma;
    }
    live_samples[4].value =
        total_groups > 0 ? err_sum / static_cast<double>(total_groups) : 0.0;
    live_samples[5].value = result.unplaced_cpu_unit_steps;
    const std::size_t game_base = live_samples.size() - game_sla.size();
    double min_avail = 100.0;
    for (std::size_t g = 0; g < game_sla.size(); ++g) {
      const double avail = game_sla[g].stats().availability_pct();
      live_samples[game_base + g].value = avail;
      min_avail = std::min(min_avail, avail);
    }
    live_samples[6].value = min_avail;
    rec->sample_step(t, live_samples);
  }

  /// Bookkeeping: live sampling, per-DC usage and cost, the audit flush
  /// and the profiler sample. `last` marks the run's last step: the
  /// horizon or a cooperative stop.
  void keep_books(std::size_t t, const StepMetrics& step_metrics,
                  bool last) {
    const obs::PhaseScope scope(rec, "books", t);
    sample_live(t, step_metrics);
    for (std::size_t d = 0; d < ledgers.size(); ++d) {
      const double cpu = ledgers[d].in_use().cpu();
      dc_cpu_sum[d] += cpu;
      dc_cpu_peak[d] = std::max(dc_cpu_peak[d], cpu);
      result.total_cost += cpu *
                           ledgers[d].spec().policy.cpu_unit_price_per_hour *
                           (util::kSampleStepSeconds / 3600.0);
    }
    for (const auto& unit : units) {
      for (auto a = unit.allocs.head; a != AllocPool::kNil;
           a = alloc_pool.next(a)) {
        dc_origin_sum[alloc_pool.dc_index(a)][unit.region_name] +=
            alloc_pool.amount(a).cpu();
      }
    }
    if (audit) {
      audit->append_batch(audit_batch);
      for (auto& list : audit_backfill) list.clear();
    }
    const auto done = static_cast<std::uint64_t>(t + 1 - start_step);
    if (profiler &&
        (done % obs::ResourceProfiler::kPublishEverySteps == 0 || last)) {
      profiler->note_step(rec->registry(), done);
    }
  }

  SimulationResult finish() {
    result.steps = completed;
    result.sla = overall_sla.stats();
    for (std::size_t g = 0; g < result.games.size(); ++g) {
      result.games[g].sla = game_sla[g].stats();
    }
    result.datacenters.reserve(ledgers.size());
    for (std::size_t d = 0; d < ledgers.size(); ++d) {
      DataCenterUsage usage;
      usage.name = ledgers[d].spec().name;
      usage.capacity_cpu = ledgers[d].spec().total_capacity().cpu();
      usage.avg_allocated_cpu = dc_cpu_sum[d] / static_cast<double>(completed);
      usage.peak_allocated_cpu = dc_cpu_peak[d];
      for (const auto& [origin, sum] : dc_origin_sum[d]) {
        usage.avg_allocated_by_origin[origin] =
            sum / static_cast<double>(completed);
      }
      result.datacenters.push_back(std::move(usage));
    }
    return std::move(result);
  }
};

}  // namespace

util::ResourceVector offer_amount(const util::ResourceVector& need,
                                  const util::ResourceVector& free,
                                  const dc::HostingPolicy& policy) noexcept {
  util::ResourceVector out{};
  if (policy.has_bundles()) {
    const std::size_t k = std::min(policy.bundles_needed(need),
                                   policy.bundles_fitting(free));
    out = policy.bundle_amount(k);
  }
  for (std::size_t i = 0; i < util::kResourceKinds; ++i) {
    if (policy.bulk.v[i] > 0.0) continue;  // covered by bundles
    out.v[i] = std::min(std::max(0.0, need.v[i]), std::max(0.0, free.v[i]));
  }
  return out;
}

SimulationResult simulate(const SimulationConfig& config) {
  validate_config(config);
  SimState sim(config);
  if (config.restore_from != nullptr) {
    sim.restore(*config.restore_from);
  } else if (config.mode == AllocationMode::kStatic) {
    sim.allocate_static();
  }
  for (std::size_t t = sim.start_step; t < sim.steps; ++t) {
    if (!sim.step(t)) break;
  }
  return sim.finish();
}

std::vector<std::size_t> recovery_lag_steps(
    const MetricsAccumulator& metrics,
    const std::vector<fault::FaultEvent>& events, double threshold_pct) {
  const auto& steps = metrics.step_metrics();
  std::vector<std::size_t> lags;
  lags.reserve(events.size());
  for (const auto& ev : events) {
    if (ev.to_step >= steps.size()) continue;  // recovers outside the run
    std::size_t lag = kNeverRecovered;
    for (std::size_t t = ev.to_step; t < steps.size(); ++t) {
      if (!steps[t].significant_under_allocation(threshold_pct)) {
        lag = t - ev.to_step;
        break;
      }
    }
    lags.push_back(lag);
  }
  return lags;
}

std::shared_ptr<const predict::NeuralModel> neural_model_from_workload(
    const trace::WorldTrace& workload, std::size_t lead_in_steps,
    predict::NeuralConfig config, std::size_t max_training_groups) {
  std::vector<util::TimeSeries> histories;
  for (const auto& region : workload.regions) {
    for (const auto& group : region.groups) {
      if (histories.size() >= max_training_groups) break;
      histories.push_back(group.players.slice(0, lead_in_steps));
    }
    if (histories.size() >= max_training_groups) break;
  }
  if (histories.empty()) {
    throw std::invalid_argument(
        "neural_factory_from_workload: empty workload");
  }
  return std::make_shared<const predict::NeuralModel>(
      predict::NeuralModel::fit(config, histories));
}

predict::PredictorFactory neural_factory_from_model(
    std::shared_ptr<const predict::NeuralModel> model) {
  if (!model) {
    throw std::invalid_argument("neural_factory_from_model: null model");
  }
  return [model = std::move(model)] {
    return std::make_unique<predict::NeuralPredictor>(model);
  };
}

predict::PredictorFactory neural_factory_from_workload(
    const trace::WorldTrace& workload, std::size_t lead_in_steps,
    predict::NeuralConfig config, std::size_t max_training_groups) {
  return neural_factory_from_model(neural_model_from_workload(
      workload, lead_in_steps, config, max_training_groups));
}

}  // namespace mmog::core
