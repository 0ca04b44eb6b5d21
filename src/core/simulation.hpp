#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/load_model.hpp"
#include "core/matcher.hpp"
#include "core/metrics.hpp"
#include "dc/datacenter.hpp"
#include "dc/ecosystem.hpp"
#include "fault/model.hpp"
#include "fault/resilience.hpp"
#include "obs/recorder.hpp"
#include "predict/neural.hpp"
#include "predict/predictor.hpp"
#include "trace/trace.hpp"

namespace mmog::core {

/// Whether resources are provisioned once for the peak (the industry's
/// static practice) or adjusted every two minutes from predictions (§V).
enum class AllocationMode { kStatic, kDynamic };

/// One operated MMOG: its interaction/update model, latency tolerance and
/// player-count workload. Region names inside the workload must be known to
/// dc::region_site() so demand can be placed geographically.
struct GameSpec {
  std::string name = "MMOG";
  LoadModel load{};
  dc::DistanceClass latency_tolerance = dc::DistanceClass::kVeryFar;
  trace::WorldTrace workload;
  int priority = 0;  ///< larger = served first (the §VII future-work knob)
};

/// A data-center outage window for failure injection: during
/// [from_step, to_step) the center grants nothing and every allocation it
/// hosts is force-released (the operator must re-place that demand
/// elsewhere, within latency tolerance).
struct DataCenterOutage {
  std::size_t dc_index = 0;
  std::size_t from_step = 0;
  std::size_t to_step = 0;

  bool active_at(std::size_t step) const noexcept {
    return step >= from_step && step < to_step;
  }
};

/// Full experiment description for the trace-driven simulator.
struct SimulationConfig {
  std::vector<dc::DataCenterSpec> datacenters;
  std::vector<GameSpec> games;
  /// Hand-scheduled all-or-nothing outage windows (the original failure
  /// knob; kept for compatibility — internally folded into `faults`).
  std::vector<DataCenterOutage> outages;
  /// Stochastic/fixed fault processes (outages, capacity loss, latency
  /// degradation, grant flaps); expanded deterministically per seed over
  /// the run's horizon. Empty = today's fault-free behavior, bit-identical.
  std::vector<fault::FaultSpec> faults;
  /// Operator-side reaction to faults: same-step re-placement with
  /// exponential backoff + exclusion lists, optional N+k standby reserve,
  /// optional priority shedding. Disabled by default.
  fault::ResiliencePolicy resilience;
  AllocationMode mode = AllocationMode::kDynamic;
  /// Creates a fresh predictor per server group (dynamic mode only).
  predict::PredictorFactory predictor;
  /// Steps to simulate; 0 = the full workload length.
  std::size_t steps = 0;
  /// Worker threads for the per-step predict phase (§IV-B predicts every
  /// sub-zone independently, which makes the phase embarrassingly parallel
  /// and, per Fig. 6, the scaling bottleneck of the provisioning loop).
  /// Only predict is sharded; padding, matching and every later phase run
  /// serially on the calling thread. 1 (the default) keeps the historical
  /// serial code path with no thread pool at all; 0 resolves to the
  /// hardware concurrency. Results are bit-identical for every thread
  /// count: workers write disjoint preallocated slots and the demand
  /// reduction stays serial in fixed index order.
  std::size_t threads = 1;
  /// Serve games in priority order within each step (extension; off
  /// reproduces the paper's first-come matching).
  bool prioritize_by_interaction = false;
  /// |Υ| threshold (percent) counting a significant under-allocation event.
  double event_threshold_pct = 1.0;
  /// Demand-estimation safety factor (§V-C: a mechanism that allocates more
  /// than the predicted volume). Each group's requested player count is its
  /// prediction plus `safety_factor` times an exponential moving average of
  /// that predictor's own absolute one-step error — so an accurate predictor
  /// earns a small cushion and a noisy one pays with over-allocation.
  double safety_factor = 0.5;
  /// Steps between granting an allocation and the resources serving load
  /// (game-server deployment, world-state transfer). The paper assumes zero
  /// overhead (§V); the setup-delay ablation quantifies that assumption.
  std::size_t provisioning_delay_steps = 0;
  /// Optional observability sink (not owned). When set, the simulator
  /// records per-phase duration histograms, offer/allocation counters and
  /// step spans; when null every instrumentation site short-circuits on a
  /// single pointer test. Event *content* stays deterministic for a fixed
  /// configuration; measured wall-clock durations are recorded values and
  /// never influence control flow.
  obs::Recorder* recorder = nullptr;
  /// Checkpointing: with a sink set, the simulator snapshots its complete
  /// mutable state after every `checkpoint_every_steps` completed steps
  /// (and, regardless of the interval, after the step a cooperative stop
  /// lands on) and hands the snapshot to the sink on the simulation
  /// thread. 0 disables periodic capture. Capture is observational: runs
  /// with and without a sink are bit-identical.
  std::size_t checkpoint_every_steps = 0;
  std::function<void(const CheckpointState&)> checkpoint_sink;
  /// Resume: when set, the run starts at `restore_from->next_step` with
  /// every loop-carried value overwritten from the snapshot instead of
  /// running steps from 0. The configuration must be the one that produced
  /// the snapshot — geometry and the expanded fault schedule are verified
  /// and a mismatch throws std::invalid_argument. Not owned; must outlive
  /// simulate().
  const CheckpointState* restore_from = nullptr;
  /// Cooperative stop (graceful shutdown): polled once per step boundary.
  /// When true the loop finishes the current step, emits a final
  /// checkpoint through the sink (if any), and returns the partial result
  /// with `interrupted` set. Not owned; may be flipped from a signal
  /// handler or another thread.
  const std::atomic<bool>* stop_flag = nullptr;
};

/// Aggregated per-data-center outcome.
struct DataCenterUsage {
  std::string name;
  double capacity_cpu = 0.0;
  double avg_allocated_cpu = 0.0;   ///< mean granted CPU units over the run
  double peak_allocated_cpu = 0.0;
  /// Mean granted CPU units split by the demand's origin region (Fig 14).
  std::map<std::string, double> avg_allocated_by_origin;
};

/// Per-game aggregated outcome (multi-MMOG runs, §V-F).
struct GameUsage {
  std::string name;
  MetricsAccumulator metrics;  ///< Ω/Υ restricted to this game's groups
  SlaStats sla;                ///< availability / recovery, this game only
};

/// Result of one simulation run.
struct SimulationResult {
  MetricsAccumulator metrics;
  std::vector<DataCenterUsage> datacenters;
  std::vector<GameUsage> games;
  std::size_t steps = 0;
  /// Demand (CPU unit-steps) that could not be placed anywhere in
  /// tolerance; contributes to under-allocation.
  double unplaced_cpu_unit_steps = 0.0;
  /// Total renting cost over the run: granted CPU units x hours x the
  /// serving policy's cpu_unit_price_per_hour.
  double total_cost = 0.0;
  /// Whole-run SLA outcome over the global breach signal.
  SlaStats sla;
  /// The concrete fault windows the run was exposed to (stochastic specs
  /// expanded, legacy outages folded in), sorted by start step.
  std::vector<fault::FaultEvent> fault_events;
  /// True when a cooperative stop ended the run early; `steps` then holds
  /// the number of steps actually completed.
  bool interrupted = false;
};

/// The resources one offer grants against `need` under `policy`, capped by
/// the data center's remaining capacity: whole bundles for the policy's
/// bulk-constrained resources (the hoster's quantum, §II-B) plus exact
/// amounts for the unconstrained ones. Exposed for testing; simulate() is
/// the production caller.
util::ResourceVector offer_amount(const util::ResourceVector& need,
                                  const util::ResourceVector& free,
                                  const dc::HostingPolicy& policy) noexcept;

/// Runs the trace-driven provisioning simulation (§V). Deterministic.
/// Throws std::invalid_argument for inconsistent configurations — no games,
/// missing predictor in dynamic mode, unknown region names, malformed
/// outage/fault windows (dc_index out of range, from_step >= to_step),
/// negative safety factor or event threshold.
SimulationResult simulate(const SimulationConfig& config);

/// Sentinel for recovery_lag_steps: the run ended still in breach.
inline constexpr std::size_t kNeverRecovered =
    static_cast<std::size_t>(-1);

/// For every fault window that ends inside the run, the number of steps
/// after the recovery until the |Υ| breach signal first clears (0 = the
/// first post-fault step already meets the SLA; kNeverRecovered = it never
/// does). The §V resilience claim is that this stays small and bounded for
/// dynamic provisioning while static allocation never recovers.
std::vector<std::size_t> recovery_lag_steps(
    const MetricsAccumulator& metrics,
    const std::vector<fault::FaultEvent>& events,
    double threshold_pct = 1.0);

/// Builds the paper's dynamic-provisioning predictor: fits a NeuralModel on
/// the first `lead_in_steps` of (a subsample of) the workload's group
/// series — the offline data-collection + training phases of §IV-C — and
/// returns a factory producing per-group online predictors sharing it.
predict::PredictorFactory neural_factory_from_workload(
    const trace::WorldTrace& workload, std::size_t lead_in_steps,
    predict::NeuralConfig config = {}, std::size_t max_training_groups = 8);

/// The training half of neural_factory_from_workload, exposed so tools can
/// serialize the shared model into checkpoints (NeuralModel::save) and
/// restore it without retraining.
std::shared_ptr<const predict::NeuralModel> neural_model_from_workload(
    const trace::WorldTrace& workload, std::size_t lead_in_steps,
    predict::NeuralConfig config = {}, std::size_t max_training_groups = 8);

/// The factory half: per-group online predictors sharing an already
/// trained (or deserialized) model.
predict::PredictorFactory neural_factory_from_model(
    std::shared_ptr<const predict::NeuralModel> model);

}  // namespace mmog::core
