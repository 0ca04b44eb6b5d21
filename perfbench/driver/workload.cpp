#include "driver/workload.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ckpt/checkpoint.hpp"
#include "core/predict_phase.hpp"
#include "core/run_report.hpp"
#include "core/simulation.hpp"
#include "dc/ecosystem.hpp"
#include "driver/spans.hpp"
#include "driver/stats.hpp"
#include "fault/parse.hpp"
#include "obs/jsonio.hpp"
#include "obs/recorder.hpp"
#include "predict/neural.hpp"
#include "predict/simple.hpp"
#include "trace/io.hpp"
#include "trace/runescape_model.hpp"
#include "util/shard_team.hpp"

namespace perfbench {
namespace {

namespace ckpt = mmog::ckpt;
namespace core = mmog::core;
namespace obs = mmog::obs;
namespace predict = mmog::predict;
namespace trace = mmog::trace;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The world size the Table III machine counts were chosen for.
constexpr double kPaperGroups = 120.0;
/// Rounds of the timed window at least, however short `seconds` is. Each
/// round is one set-up, one pass and one restore per sampled checkpoint.
constexpr std::size_t kMinRounds = 3;
/// mmog_simulate's --checkpoint-every default.
constexpr std::size_t kChaosCheckpointEvery = 30;
/// Four fault processes on four Table III centres, each seeded with the
/// workload seed (the schedule decorrelates them per centre and kind).
constexpr const char* kChaosFaults[] = {
    "outage:dc=2,mtbf=1d,mttr=3h",
    "capacity:dc=0,mtbf=12h,mttr=1h,severity=0.5",
    "latency:dc=1,mtbf=1d,mttr=2h",
    "flap:dc=3,mtbf=6h,mttr=4m",
};
/// Layers that get a self-time metric ("self.<layer>_s").
constexpr const char* kLayers[] = {"trace", "nn",    "predict", "core", "dc",
                                   "fault", "ckpt",  "obs",     "util"};

/// Keeps probe results observable so the loops are not optimized away.
volatile double g_probe_sink = 0.0;

enum class RecorderKind {
  kNone,      ///< config.recorder == nullptr
  kProfiler,  ///< per-phase profiler only
  kWorkload,  ///< profiler + decision audit, as --report-out --audit-out
};

struct Shape {
  std::size_t groups = 0;
  std::size_t steps = 0;
};

/// One simulate() pass and what it produced.
struct Pass {
  bool ok = false;
  double seconds = 0.0;
  obs::RunReport report;
  std::unique_ptr<obs::Recorder> recorder;
};

/// Everything one run carries between its stages.
struct Run {
  explicit Run(const RunOptions& options) : o(options), spans(options.trace) {}

  const RunOptions& o;
  Shape shape;
  RecorderKind kind = RecorderKind::kNone;
  bool chaos = false;
  bool paper = false;
  SpanRecorder spans;
  RunResult result;
  /// Built once per set-up and never copied: it holds the whole trace.
  std::unique_ptr<core::SimulationConfig> config;
  std::map<std::string, std::string> echo;  ///< report config + ckpt extras
  std::string csv_path;
  std::size_t capture_every = 0;  ///< checkpoint interval of the sink
  std::size_t sample_every = 0;   ///< interval of the files kept for restores
  std::vector<std::string> samples;  ///< checkpoint files, oldest first
  std::string newest;                ///< newest serialized checkpoint
  std::size_t sink_calls = 0;        ///< checkpoints of the current pass
  std::size_t bytes_last = 0;        ///< size of the last serialized one
  int next_pass = 0;
  std::optional<obs::RunReport> reference;  ///< the first pass's report
  std::vector<obs::AuditRecord> reference_audit;
  std::optional<obs::Snapshot> profile;  ///< traced run: a profiled pass
  std::map<std::string, std::vector<double>> layer;  ///< per-layer samples

  void fail(std::string note) {
    ++result.failed;
    result.correct = false;
    result.notes.push_back(std::move(note));
  }
};

void reset_peak_rss() {
  // "5" resets VmHWM to the current RSS (proc(5), /proc/pid/clear_refs).
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  return 0.0;
}

Shape shape_of(const RunOptions& o) {
  Shape shape;
  switch (o.workload) {
    case Workload::kFleet:
      shape = {10000, mmog::util::samples_per_days(1)};
      break;
    case Workload::kPaper:
      shape = {120, mmog::util::samples_per_days(16)};
      break;
    case Workload::kChaos:
      shape = {1000, mmog::util::samples_per_days(4)};
      break;
  }
  if (o.groups > 0) shape.groups = o.groups;
  if (o.steps > 0) shape.steps = o.steps;
  return shape;
}

trace::RuneScapeModelConfig trace_config(const Run& r) {
  auto config = trace::RuneScapeModelConfig::paper_default();
  if (config.total_groups() != r.shape.groups) {
    config.scale_to_groups(r.shape.groups);
  }
  config.steps = r.shape.steps;
  config.seed = r.o.seed;
  return config;
}

std::unique_ptr<obs::Recorder> make_recorder(RecorderKind kind) {
  if (kind == RecorderKind::kNone) return nullptr;
  auto recorder = std::make_unique<obs::Recorder>(obs::TraceLevel::kOff);
  recorder->enable_profiler();
  if (kind == RecorderKind::kWorkload) recorder->enable_audit();
  return recorder;
}

predict::PredictorFactory last_value_factory() {
  return [] { return std::make_unique<predict::LastValuePredictor>(); };
}

/// mmog_simulate's neural settings: one day of lead-in, 40 eras, patience
/// 8, six training groups.
std::shared_ptr<const predict::NeuralModel> fit_model(
    Run& r, const trace::WorldTrace& world) {
  predict::NeuralConfig config;
  config.train.max_eras = 40;
  config.train.patience = 8;
  const std::size_t lead_in =
      std::min(mmog::util::samples_per_days(1), world.steps() / 2);
  const SpanScope span(r.spans, "nn.fit");
  return core::neural_model_from_workload(world, lead_in, config, 6);
}

/// One set-up: ingestion or generation, training and fault-spec parsing —
/// everything between workload start and the first simulate() call.
std::unique_ptr<core::SimulationConfig> build_config(Run& r) {
  auto config = std::make_unique<core::SimulationConfig>();
  config->datacenters = mmog::dc::paper_ecosystem();
  // Table III sizes the ecosystem for the 120-group world; scale the
  // machine counts with the fleet, as mmog_bench does.
  const double factor = static_cast<double>(r.shape.groups) / kPaperGroups;
  if (factor > 1.0) {
    for (auto& center : config->datacenters) {
      center.machines = static_cast<std::size_t>(
          std::ceil(static_cast<double>(center.machines) * factor));
    }
  }
  core::GameSpec game;
  game.name = "perfbench";
  game.load = core::LoadModel{core::UpdateModel::kQuadratic, 2000.0};
  game.latency_tolerance = mmog::dc::DistanceClass::kVeryFar;
  if (r.paper) {
    if (r.spans.enabled()) reset_peak_rss();
    {
      const SpanScope span(r.spans, "trace.read_csv");
      game.workload = trace::read_world_csv_file(r.csv_path);
    }
    if (r.spans.enabled()) {
      r.layer["trace.read_csv_peak_mb"].push_back(peak_rss_mib());
    }
  } else {
    const SpanScope span(r.spans, "trace.generate");
    game.workload = trace::generate(trace_config(r));
  }
  config->games.push_back(std::move(game));
  config->predictor =
      r.paper ? core::neural_factory_from_model(
                    fit_model(r, config->games.front().workload))
              : last_value_factory();
  if (r.chaos) {
    std::string specs;
    for (const char* spec : kChaosFaults) {
      if (!specs.empty()) specs += ';';
      specs += spec;
      specs += ",seed=" + std::to_string(r.o.seed);
    }
    config->faults = mmog::fault::parse_fault_specs(specs);
    config->resilience.enabled = true;
  }
  config->threads = 1;
  return config;
}

/// The checkpoint sink. `keep_newest` is the chaos workload's own sink:
/// every checkpoint serialized in memory, only the newest text kept.
/// `capture` also writes every sample_every-th checkpoint to a file for
/// the restores (only in the untimed first pass: the write fsyncs).
std::function<void(const core::CheckpointState&)> make_sink(
    Run& r, bool keep_newest, bool capture, bool traced) {
  return [&r, keep_newest, capture, traced](const core::CheckpointState& st) {
    const bool sample = capture && st.next_step % r.sample_every == 0 &&
                        st.next_step < r.shape.steps;
    if (!keep_newest && !sample) return;
    ++r.sink_calls;
    ckpt::CheckpointFile file;
    file.state = st;
    file.extras = r.echo;
    {
      std::optional<SpanScope> span;
      if (traced) span.emplace(r.spans, "ckpt.to_jsonl");
      std::string text = ckpt::to_jsonl(file);
      r.bytes_last = text.size();
      if (keep_newest) r.newest = std::move(text);
    }
    if (sample) {
      const std::string path = r.o.work_dir + "/ckpt-" +
                               std::to_string(st.next_step) + ".jsonl";
      std::optional<SpanScope> span;
      if (traced) span.emplace(r.spans, "ckpt.write");
      ckpt::write_checkpoint_file(path, file);
      r.samples.push_back(path);
    }
  };
}

/// One simulate() pass over the run's config. The report is built after
/// the clock stops.
Pass run_pass(Run& r, RecorderKind kind, bool sink, bool capture,
              bool traced) {
  core::SimulationConfig& config = *r.config;
  Pass out;
  out.recorder = make_recorder(kind);
  config.recorder = out.recorder.get();
  if (sink || capture) {
    config.checkpoint_every_steps = r.capture_every;
    config.checkpoint_sink = make_sink(r, sink, capture, traced);
  }
  r.sink_calls = 0;
  const int id = r.next_pass++;
  ++r.result.attempted;
  try {
    core::SimulationResult result;
    {
      std::optional<SpanScope> span;
      if (traced) span.emplace(r.spans, "core.simulate", id);
      const auto start = Clock::now();
      result = core::simulate(config);
      out.seconds = since(start);
    }
    out.report = core::make_run_report(
        config, result, "perfbench", std::string(workload_name(r.o.workload)),
        out.seconds, r.echo);
    out.ok = true;
  } catch (const std::exception& e) {
    r.fail("pass " + std::to_string(id) + " threw: " + e.what());
  }
  config.recorder = nullptr;
  config.checkpoint_every_steps = 0;
  config.checkpoint_sink = nullptr;
  if (out.ok && r.o.tamper) {
    r.o.tamper(static_cast<std::size_t>(id), out.report);
  }
  return out;
}

/// The outcome fields that do not depend on which recorder was attached.
obs::RunReport::Outcome recorder_neutral(obs::RunReport::Outcome outcome) {
  outcome.counters.clear();
  outcome.audit_records = 0;
  outcome.alerts_fired = 0;
  outcome.alerts_resolved = 0;
  outcome.alerts_firing = 0;
  return outcome;
}

/// Every pass must reproduce the first pass's outcome exactly.
void check_pass(Run& r, const Pass& pass, RecorderKind kind) {
  if (!pass.ok || !r.reference) return;
  const auto& expected = r.reference->outcome;
  const bool same =
      kind == r.kind ? pass.report.outcome == expected
                     : recorder_neutral(pass.report.outcome) ==
                           recorder_neutral(expected);
  if (!same) {
    r.fail("pass outcome differs from the first pass's (" +
           std::to_string(pass.report.outcome.steps) + " steps, " +
           obs::json_double(pass.report.outcome.total_cost) + " vs " +
           obs::json_double(expected.total_cost) + " cost)");
  }
}

/// A report reduced to what a pin holds: config and outcome.
obs::RunReport pin_of(const obs::RunReport& report) {
  obs::RunReport pin;
  pin.tool = report.tool;
  pin.label = report.label;
  pin.config = report.config;
  pin.outcome = report.outcome;
  return pin;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void check_pinned(Run& r, const obs::RunReport& report) {
  const std::string path = r.o.pinned_dir + "/" +
                           std::string(workload_name(r.o.workload)) + ".json";
  try {
    const auto pinned = obs::RunReport::parse(slurp(path));
    const auto diff = obs::diff_reports(pinned, pin_of(report));
    if (diff.outcome_identical) return;
    std::string note = "first pass differs from " + path + ":";
    for (const auto& line : diff.notes) note += " " + line + ";";
    r.fail(note);
  } catch (const std::exception& e) {
    r.fail("pinned outcome unusable: " + std::string(e.what()));
  }
}

/// Allocation conservation: every unit holds exactly the in-order sum of
/// its allocation amounts, in every resource dimension.
bool conserved(const core::CheckpointState& state) {
  for (const auto& unit : state.units) {
    mmog::util::ResourceVector sum{};
    for (const auto& allocation : unit.allocations) sum += allocation.amount;
    for (std::size_t k = 0; k < mmog::util::kResourceKinds; ++k) {
      if (unit.allocated.v[k] != sum.v[k]) return false;
    }
  }
  return true;
}

struct Restore {
  /// Load + simulate, the recovery a restarted tool pays.
  double seconds = 0.0;
  ckpt::LoadedCheckpoint loaded;
  core::SimulationResult result;
  std::unique_ptr<obs::Recorder> recorder;
};

/// Restores from `path` and runs either one step (the stop flag is already
/// set) or to the end; nullopt when the restore threw.
std::optional<Restore> restore(Run& r, const std::string& path,
                               bool one_step) {
  core::SimulationConfig& config = *r.config;
  std::atomic<bool> stop{true};
  Restore out;
  ++r.result.attempted;
  bool ok = true;
  try {
    const auto start = Clock::now();
    {
      const SpanScope span(r.spans, "ckpt.load");
      out.loaded = ckpt::load_newest_valid(path);
    }
    // As in `mmog_simulate --restore`: the checkpoint is parsed before the
    // recorder (and its allocation-counting profiler) exists.
    out.recorder = make_recorder(r.kind);
    config.restore_from = &out.loaded.file.state;
    config.stop_flag = one_step ? &stop : nullptr;
    config.recorder = out.recorder.get();
    {
      // One-step restores are the recovery samples; a run to the end is
      // the chaos identity check and gets a span of its own.
      const SpanScope span(r.spans,
                           one_step ? "core.restore" : "core.resume");
      out.result = core::simulate(config);
    }
    out.seconds = since(start);
  } catch (const std::exception& e) {
    r.fail("restore from " + path + " threw: " + e.what());
    ok = false;
  }
  config.restore_from = nullptr;
  config.stop_flag = nullptr;
  config.recorder = nullptr;
  if (!ok) return std::nullopt;
  return out;
}

/// Chaos checks, outside every timed window: a mid-run restore run to the
/// end must reproduce the uninterrupted pass's report and audit trail, and
/// every retained checkpoint must satisfy allocation conservation.
void check_chaos(Run& r) {
  if (r.samples.empty()) {
    r.fail("no checkpoint was sampled");
    return;
  }
  if (auto resumed = restore(r, r.samples[r.samples.size() / 2], false)) {
    r.config->recorder = resumed->recorder.get();
    const auto report = core::make_run_report(
        *r.config, resumed->result, "perfbench",
        std::string(workload_name(r.o.workload)), resumed->seconds, r.echo);
    r.config->recorder = nullptr;
    const auto diff = obs::diff_reports(*r.reference, report);
    const auto audit = obs::diff_audits(
        r.reference_audit, resumed->recorder->audit()->records());
    if (diff.regression() || audit.regression()) {
      std::string note = "restore from " + resumed->loaded.path +
                         " run to the end differs from the first pass:";
      for (const auto& line : diff.notes) note += " " + line + ";";
      for (const auto& line : audit.notes) note += " " + line + ";";
      r.fail(note);
    }
  }
  try {
    if (!r.newest.empty() && !conserved(ckpt::parse_jsonl(r.newest).state)) {
      r.fail("the newest checkpoint breaks allocation conservation");
    }
    for (const auto& path : r.samples) {
      if (!conserved(ckpt::load_newest_valid(path).file.state)) {
        r.fail(path + " breaks allocation conservation");
      }
    }
  } catch (const std::exception& e) {
    r.fail("retained checkpoint unreadable: " + std::string(e.what()));
  }
}

std::vector<const mmog::util::TimeSeries*> all_series(
    const trace::WorldTrace& world) {
  std::vector<const mmog::util::TimeSeries*> out;
  for (const auto& region : world.regions) {
    for (const auto& group : region.groups) out.push_back(&group.players);
  }
  return out;
}

/// The first `groups` groups of `world`, regions kept.
trace::WorldTrace first_groups(const trace::WorldTrace& world,
                               std::size_t groups) {
  trace::WorldTrace out;
  out.step_seconds = world.step_seconds;
  for (const auto& region : world.regions) {
    if (groups == 0) break;
    trace::RegionalTrace part;
    part.name = region.name;
    part.utc_offset_hours = region.utc_offset_hours;
    for (const auto& group : region.groups) {
      if (groups == 0) break;
      part.groups.push_back(group);
      --groups;
    }
    out.regions.push_back(std::move(part));
  }
  return out;
}

/// Nanoseconds per predict() + observe() pair, replaying whole series
/// through fresh predictors until at least `calls` pairs ran.
double replay_ns(Run& r, const char* span_name,
                 const predict::PredictorFactory& make,
                 const std::vector<const mmog::util::TimeSeries*>& series,
                 std::size_t calls) {
  const SpanScope span(r.spans, span_name);
  std::size_t done = 0;
  double acc = 0.0;
  const auto start = Clock::now();
  while (done < calls) {
    for (const auto* values : series) {
      const auto predictor = make();
      for (const double v : values->values()) {
        acc += predictor->predict();
        predictor->observe(v);
      }
      done += values->size();
      if (done >= calls) break;
    }
  }
  const double ns = since(start) * 1e9 / static_cast<double>(done);
  g_probe_sink = acc;
  return ns;
}

/// Per-layer probes of the traced run: each times one public call of a
/// layer on this workload's inputs. Layers the workload's passes do not
/// use (CSV ingestion and nn on fleet and chaos) are probed on a slice of
/// its own trace so every layer reads on every workload.
void probe_layers(Run& r) {
  const core::SimulationConfig& config = *r.config;
  const auto& world = config.games.front().workload;
  const auto series = all_series(world);
  auto& layer = r.layer;

  if (!r.paper) {
    const std::string path = r.o.work_dir + "/slice.csv";
    {
      const SpanScope span(r.spans, "trace.write_csv");
      trace::write_world_csv_file(path, first_groups(world, 120));
    }
    for (int i = 0; i < 3; ++i) {
      reset_peak_rss();
      const SpanScope span(r.spans, "trace.read_csv");
      g_probe_sink =
          static_cast<double>(trace::read_world_csv_file(path).steps());
      layer["trace.read_csv_peak_mb"].push_back(peak_rss_mib());
    }
  }

  const predict::PredictorFactory neural =
      r.paper ? config.predictor
              : core::neural_factory_from_model(fit_model(r, world));
  layer["nn.predict_ns"].push_back(
      replay_ns(r, "nn.predict_replay", neural, series, 100000));
  layer["predict.lastvalue_ns"].push_back(replay_ns(
      r, "predict.lastvalue_replay", last_value_factory(), series, 4000000));

  {
    // The predict phase alone: one ParallelPredictor::run per step over
    // the workload's own predictors, observing the trace in between.
    std::vector<std::unique_ptr<predict::Predictor>> predictors;
    std::vector<double> out(series.size());
    std::vector<core::PredictSlot> slots;
    for (std::size_t i = 0; i < series.size(); ++i) {
      predictors.push_back(config.predictor());
      slots.push_back({predictors.back().get(), &out[i]});
    }
    core::ParallelPredictor runner(1);
    const std::size_t steps = std::min<std::size_t>(r.shape.steps, 1440);
    const SpanScope span(r.spans, "core.predict_phase");
    double us = 0.0;
    for (std::size_t t = 0; t < steps; ++t) {
      const auto start = Clock::now();
      runner.run(slots, nullptr);
      us += since(start) * 1e6;
      for (std::size_t i = 0; i < series.size(); ++i) {
        predictors[i]->observe((*series[i])[t]);
      }
    }
    layer["core.predict_phase_us"].push_back(us / static_cast<double>(steps));
  }

  {
    const auto& load = config.games.front().load;
    const SpanScope span(r.spans, "core.load_demand");
    std::size_t calls = 0;
    double acc = 0.0;
    const auto start = Clock::now();
    while (calls < 4000000) {
      for (const auto* values : series) {
        for (const double v : values->values()) acc += load.demand(v).cpu();
        calls += values->size();
        if (calls >= 4000000) break;
      }
    }
    layer["core.load_demand_ns"].push_back(since(start) * 1e9 /
                                           static_cast<double>(calls));
    g_probe_sink = acc;
  }

  {
    // One server's worth of demand granted and released on every centre.
    std::vector<mmog::dc::DataCenterLedger> ledgers;
    for (const auto& center : config.datacenters) ledgers.emplace_back(center);
    const auto amount = config.games.front().load.demand(1000.0);
    constexpr std::size_t kRounds = 200000;
    const SpanScope span(r.spans, "dc.grant_release");
    bool granted = true;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kRounds; ++i) {
      for (auto& ledger : ledgers) {
        granted &= ledger.grant(amount);
        ledger.release(amount);
      }
    }
    layer["dc.grant_release_ns"].push_back(
        since(start) * 1e9 / static_cast<double>(kRounds * ledgers.size()));
    if (!granted) r.result.notes.push_back("dc probe: a grant did not fit");
  }

  {
    // The workload's own fault schedule (empty on fleet and paper), queried
    // at every (centre, step) the way the step loop does.
    mmog::fault::FaultSchedule schedule;
    {
      const SpanScope span(r.spans, "fault.generate");
      schedule = mmog::fault::FaultSchedule::generate(
          config.faults, config.datacenters.size(), r.shape.steps);
    }
    layer["fault.windows"].push_back(
        static_cast<double>(schedule.events().size()));
    const SpanScope span(r.spans, "fault.query");
    std::size_t queries = 0;
    double acc = 0.0;
    const auto start = Clock::now();
    while (queries < 3000000) {
      for (std::size_t t = 0; t < r.shape.steps; ++t) {
        for (std::size_t d = 0; d < config.datacenters.size(); ++d) {
          acc += static_cast<double>(schedule.outage_at(d, t)) +
                 static_cast<double>(schedule.latency_penalty_at(d, t)) +
                 schedule.capacity_fraction_at(d, t);
        }
      }
      queries += 3 * r.shape.steps * config.datacenters.size();
    }
    layer["fault.query_ns"].push_back(since(start) * 1e9 /
                                      static_cast<double>(queries));
    g_probe_sink = acc;
  }

  {
    // String-keyed registry calls, as the simulator makes them.
    obs::Recorder recorder(obs::TraceLevel::kOff);
    constexpr std::size_t kCalls = 1000000;
    {
      const SpanScope span(r.spans, "obs.count");
      const auto start = Clock::now();
      for (std::size_t i = 0; i < kCalls; ++i) recorder.count("offer.matched");
      layer["obs.count_ns"].push_back(since(start) * 1e9 / kCalls);
    }
    {
      const SpanScope span(r.spans, "obs.observe_us");
      const auto start = Clock::now();
      for (std::size_t i = 0; i < kCalls; ++i) {
        recorder.observe_us("predictor.inference_us",
                            0.5 + static_cast<double>(i % 64));
      }
      layer["obs.observe_us_ns"].push_back(since(start) * 1e9 / kCalls);
    }
  }

  {
    // Dispatch and join of an empty task on a two-thread team.
    mmog::util::ShardTeam team(2);
    constexpr std::size_t kRuns = 5000;
    const SpanScope span(r.spans, "util.shard_team_run");
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kRuns; ++i) {
      team.run([](void*, std::size_t, std::size_t) {}, nullptr);
    }
    layer["util.shard_team_run_us"].push_back(since(start) * 1e6 / kRuns);
  }
}

std::vector<double> scaled(std::vector<double> values, double factor) {
  for (auto& v : values) v *= factor;
  return values;
}

/// Per-layer numbers read from a profiled pass's registry.
void profile_metrics(Run& r) {
  if (!r.profile) {
    r.result.notes.push_back("no profiled pass: phase metrics not measured");
    return;
  }
  const obs::Snapshot& snap = *r.profile;
  const auto histogram = [&snap](const std::string& name) {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? obs::HistogramData{} : it->second;
  };
  const auto counter = [&snap](const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : it->second;
  };
  for (const char* phase :
       {"predict", "pad", "match", "match_commit", "account", "step"}) {
    r.layer[std::string("core.phase.") + phase + "_mean_us"].push_back(
        histogram(std::string("phase.") + phase + "_us").mean());
  }
  // Replace runs only on steps a fault took capacity, so it is reported
  // as its share of step time (0 where no fault ever fires).
  r.result.notes.push_back(
      "the replace phase is reported as core.phase.replace_share, not a "
      "mean: it runs only on steps where a fault took capacity");
  const double step_us = histogram("phase.step_us").sum;
  r.layer["core.phase.replace_share"].push_back(
      step_us > 0.0 ? histogram("phase.replace_us").sum / step_us : 0.0);
  r.layer["core.allocs_per_step"].push_back(
      histogram("phase.step_allocs").mean());
  double offers = counter("offer.matched");
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("offer.rejected.", 0) == 0) offers += value;
  }
  r.layer["core.grant_ratio"].push_back(
      offers > 0.0 ? counter("alloc.granted") / offers : 0.0);
  const double retries = counter("resilience.retry");
  r.layer["fault.replace_ratio"].push_back(
      retries > 0.0 ? counter("resilience.replaced") / retries : 0.0);
}

Metric summarize(const MetricDef& def, const std::vector<double>& samples) {
  Metric metric;
  metric.name = def.name;
  metric.unit = def.unit;
  metric.samples = samples.size();
  metric.value = median(samples);
  const auto q = quartiles(samples);
  metric.q1 = q[0];
  metric.q3 = q[2];
  return metric;
}

std::vector<Metric> assemble(Run& r, const std::vector<MetricDef>& defs,
                             const std::map<std::string, std::vector<double>>&
                                 samples) {
  std::vector<Metric> out;
  for (const auto& def : defs) {
    const auto it = samples.find(def.name);
    if (it == samples.end() || it->second.empty()) {
      r.result.notes.push_back(std::string(def.name) + " not measured");
      out.push_back(summarize(def, {}));
    } else {
      out.push_back(summarize(def, it->second));
    }
  }
  return out;
}

void run_stages(Run& r) {
  const RunOptions& o = r.o;
  r.shape = shape_of(o);
  r.paper = o.workload == Workload::kPaper;
  r.chaos = o.workload == Workload::kChaos;
  r.kind = o.workload == Workload::kFleet ? RecorderKind::kNone
                                          : RecorderKind::kWorkload;
  r.capture_every = r.chaos ? kChaosCheckpointEvery
                            : std::max<std::size_t>(1, r.shape.steps / 10);
  r.sample_every =
      r.capture_every *
      std::max<std::size_t>(1, r.shape.steps / 10 / r.capture_every);
  r.echo = {{"workload", std::string(workload_name(o.workload))},
            {"seed", std::to_string(o.seed)},
            {"groups", std::to_string(r.shape.groups)},
            {"steps", std::to_string(r.shape.steps)}};
  const double group_steps =
      static_cast<double>(r.shape.groups) * static_cast<double>(r.shape.steps);

  // Input generation: the paper trace reaches the program as a CSV file,
  // as `mmog_simulate --in` reads it. Written before the peak is reset.
  if (r.paper) {
    r.csv_path = o.work_dir + "/paper.csv";
    trace::WorldTrace world;
    {
      const SpanScope span(r.spans, "trace.generate");
      world = trace::generate(trace_config(r));
    }
    const SpanScope span(r.spans, "trace.write_csv");
    trace::write_world_csv_file(r.csv_path, world);
  }
  reset_peak_rss();

  std::vector<double> setup_s;
  const auto set_up = [&r, &setup_s] {
    r.config.reset();
    const auto start = Clock::now();
    r.config = build_config(r);
    setup_s.push_back(since(start));
  };
  set_up();

  // The first pass: warm-up, reference outcome, and the checkpoint files
  // the restores read.
  Pass first = run_pass(r, r.kind, r.chaos, true, o.trace);
  if (!first.ok) return;
  r.reference = first.report;
  if (r.chaos) r.reference_audit = first.recorder->audit()->records();
  if (!o.pinned_dir.empty()) check_pinned(r, first.report);
  if (!o.pin_out.empty()) {
    std::ofstream pin(o.pin_out);
    pin << pin_of(first.report).to_json() << '\n';
    if (!pin) r.fail("cannot write " + o.pin_out);
  }
  first = Pass{};

  // Timed window, on this thread until `seconds` is spent. Each round sets
  // up again, runs one closed-loop pass and restores once from every
  // sampled checkpoint (each restore ends after one resumed step), so the
  // samples of every metric spread over the whole window and a drift of
  // host speed weighs the same on all of them. The traced run alternates
  // traced and untraced passes.
  std::vector<double> rate, traced_rate, untraced_rate, pass_s, traced_s;
  std::vector<double> recovery_ms;
  std::size_t ckpt_count = 0;
  const std::size_t min_rounds = o.trace ? 4 : kMinRounds;
  const auto window = Clock::now();
  for (std::size_t k = 0; k < min_rounds || since(window) < o.seconds; ++k) {
    set_up();
    const bool traced = o.trace && k % 2 == 0;
    Pass pass = run_pass(r, r.kind, r.chaos, false, traced);
    if (pass.ok) {
      check_pass(r, pass, r.kind);
      const double gs = group_steps / pass.seconds;
      rate.push_back(gs);
      pass_s.push_back(pass.seconds);
      (traced ? traced_rate : untraced_rate).push_back(gs);
      if (traced) traced_s.push_back(pass.seconds);
      ckpt_count = r.sink_calls;
      if (o.trace && pass.recorder) r.profile = pass.recorder->snapshot();
    }
    pass = Pass{};
    // One recovery sample per round: the mean over the checkpoints spread
    // across the run, i.e. the expected recovery after a crash at a random
    // step. The restores' costs grow with the checkpoint, so a median over
    // single restores would jump between neighbouring checkpoints.
    double round_ms = 0.0;
    std::size_t restores = 0;
    for (const auto& path : r.samples) {
      auto restored = restore(r, path, true);
      if (!restored) continue;
      const auto expected = restored->loaded.file.state.next_step + 1;
      if (!restored->result.interrupted ||
          restored->result.steps != expected) {
        r.fail("restore from " + path + " ran " +
               std::to_string(restored->result.steps) + " steps, expected " +
               std::to_string(expected));
        continue;
      }
      round_ms += restored->seconds * 1e3;
      ++restores;
    }
    if (restores > 0) {
      recovery_ms.push_back(round_ms / static_cast<double>(restores));
    }
  }
  if (r.chaos) check_chaos(r);

  if (!o.trace) {
    r.result.metrics = assemble(r, end_to_end_metrics(),
                                {{"group_steps_per_s", rate},
                                 {"setup_s", setup_s},
                                 {"peak_rss_mb", {peak_rss_mib()}},
                                 {"recovery_ms", recovery_ms}});
    return;
  }

  // Traced run only: the passes the per-layer ratios compare against.
  auto& layer = r.layer;
  const double pass_median = median(pass_s);
  if (r.kind == RecorderKind::kNone) {
    // fleet attaches no recorder: profile one extra pass for the phases.
    layer["obs.overhead_ratio"] = {1.0};
    Pass profiled = run_pass(r, RecorderKind::kProfiler, false, false, false);
    check_pass(r, profiled, RecorderKind::kProfiler);
    if (profiled.ok) r.profile = profiled.recorder->snapshot();
  } else {
    Pass bare = run_pass(r, RecorderKind::kNone, r.chaos, false, false);
    check_pass(r, bare, RecorderKind::kNone);
    if (bare.ok) layer["obs.overhead_ratio"] = {pass_median / bare.seconds};
  }
  layer["ckpt.share"] = {0.0};
  if (r.chaos) {
    Pass sinkless = run_pass(r, r.kind, false, false, false);
    check_pass(r, sinkless, r.kind);
    if (sinkless.ok) {
      layer["ckpt.share"] = {1.0 - sinkless.seconds / pass_median};
    }
  }
  probe_layers(r);
  profile_metrics(r);

  layer["trace.generate_s"] = r.spans.durations("trace.generate");
  layer["trace.read_csv_s"] = r.spans.durations("trace.read_csv");
  layer["nn.fit_s"] = r.spans.durations("nn.fit");
  layer["core.simulate_s"] = traced_s;
  layer["ckpt.count"] = {static_cast<double>(ckpt_count)};
  layer["ckpt.bytes_last"] = {static_cast<double>(r.bytes_last)};
  layer["ckpt.to_jsonl_ms"] = scaled(r.spans.durations("ckpt.to_jsonl"), 1e3);
  layer["ckpt.load_ms"] = scaled(r.spans.durations("ckpt.load"), 1e3);
  layer["ckpt.restore_ms"] = scaled(r.spans.durations("core.restore"), 1e3);
  layer["ckpt.write_ms"] = scaled(r.spans.durations("ckpt.write"), 1e3);
  layer["obs.audit_records"] = {
      static_cast<double>(r.reference->outcome.audit_records)};
  if (!traced_rate.empty() && !untraced_rate.empty()) {
    layer["span_overhead_ratio"] = {median(traced_rate) /
                                    median(untraced_rate)};
  }
  const auto self = self_time_by_layer(r.spans.spans());
  for (const char* name : kLayers) {
    const auto it = self.find(name);
    if (it != self.end()) {
      layer["self." + std::string(name) + "_s"] = {it->second};
    }
  }
  r.result.metrics = assemble(r, per_layer_metrics(), layer);
  if (!o.spans_out.empty()) {
    std::ofstream out(o.spans_out);
    r.spans.write_jsonl(out);
    if (!out) r.result.notes.push_back("cannot write " + o.spans_out);
  }
}

}  // namespace

Workload parse_workload(std::string_view name) {
  if (name == "fleet") return Workload::kFleet;
  if (name == "paper") return Workload::kPaper;
  if (name == "chaos") return Workload::kChaos;
  throw std::invalid_argument("unknown workload \"" + std::string(name) +
                              "\" (fleet|paper|chaos)");
}

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::kFleet:
      return "fleet";
    case Workload::kPaper:
      return "paper";
    case Workload::kChaos:
      return "chaos";
  }
  return "?";
}

RunResult run_workload(const RunOptions& options) {
  Run r(options);
  try {
    run_stages(r);
  } catch (const std::exception& e) {
    // Set-up or a check outside any pass failed: count it as one failed
    // operation so the run can never look clean.
    ++r.result.attempted;
    r.fail(std::string("run aborted: ") + e.what());
  }
  if (r.result.metrics.empty()) {
    r.result.metrics = assemble(
        r, options.trace ? per_layer_metrics() : end_to_end_metrics(), {});
  }
  return std::move(r.result);
}

}  // namespace perfbench
