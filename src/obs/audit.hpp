#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/fields.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mmog::obs {

/// Why a candidate data center did or did not serve (part of) a request.
/// One entry per center the matcher's candidate walk actually visited —
/// centers outside the game's latency tolerance never enter the walk (they
/// are rejected once, up front, per request stream).
enum class OfferOutcome : std::uint8_t {
  kGranted = 0,             ///< offer accepted; `cpu` CPU units rented
  kRejectedOutage,          ///< center down (fault schedule)
  kRejectedLatencyDegraded, ///< latency fault pushed it past tolerance
  kRejectedBackoff,         ///< excluded by the resilience backoff window
  kRejectedBulk,            ///< CPU bulk cannot cut a usable offer
  kRejectedAmount,          ///< nothing (left) to offer
  kGrantFlapped,            ///< offer accepted but the grant never materialized
};

inline constexpr EnumName<OfferOutcome> kOfferOutcomeNames[] = {
    {OfferOutcome::kGranted, "granted"},
    {OfferOutcome::kRejectedOutage, "rejected_outage"},
    {OfferOutcome::kRejectedLatencyDegraded, "rejected_latency_degraded"},
    {OfferOutcome::kRejectedBackoff, "rejected_backoff"},
    {OfferOutcome::kRejectedBulk, "rejected_bulk"},
    {OfferOutcome::kRejectedAmount, "rejected_amount"},
    {OfferOutcome::kGrantFlapped, "grant_flapped"},
};

std::string_view offer_outcome_name(OfferOutcome outcome);
/// Inverse of offer_outcome_name; throws std::invalid_argument.
OfferOutcome offer_outcome_from_name(std::string_view name);

/// What kind of provisioning decision a record captures.
enum class AuditKind : std::uint8_t {
  kMatch = 0,     ///< regular per-step match-phase decision (release+acquire)
  kReplace,       ///< same-step resilient re-placement after a fault loss
  kStatic,        ///< one-shot static provisioning at step 0
  kForceRelease,  ///< eviction: outage / latency / capacity fault, or shed
};

inline constexpr EnumName<AuditKind> kAuditKindNames[] = {
    {AuditKind::kMatch, "match"},
    {AuditKind::kReplace, "replace"},
    {AuditKind::kStatic, "static"},
    {AuditKind::kForceRelease, "force_release"},
};

std::string_view audit_kind_name(AuditKind kind);
/// Inverse of audit_kind_name; throws std::invalid_argument.
AuditKind audit_kind_from_name(std::string_view name);

/// One visited candidate in a decision's offer walk, in walk order.
struct AuditOffer {
  std::uint32_t dc = 0;  ///< data-center index in the run's configuration
  OfferOutcome outcome = OfferOutcome::kRejectedAmount;
  double cpu = 0.0;      ///< CPU units granted (kGranted only)
  /// Outcome-specific detail: for kRejectedBackoff / kGrantFlapped the
  /// first step at which the center becomes eligible again; 0 otherwise.
  std::uint64_t until_step = 0;

  friend bool operator==(const AuditOffer&, const AuditOffer&) = default;
};

/// Sentinel for AuditRecord::dc: no data center was chosen.
inline constexpr std::int32_t kAuditNoDc = -1;

/// One compact record per provisioning decision: what the predictor said,
/// how much safety margin the §V-C mechanism added, which centers the
/// matcher walk visited and why each was taken or skipped, and what the
/// demand actually turned out to be. Every field is deterministic for a
/// fixed configuration and seed — no wall-clock values — so same-seed runs
/// produce byte-identical trails at any thread count.
struct AuditRecord {
  std::uint64_t seq = 0;   ///< assigned by the trail in recording order
  std::uint64_t step = 0;
  AuditKind kind = AuditKind::kMatch;
  std::uint32_t game = 0;  ///< game index in the run's configuration
  std::string region;      ///< demand unit = one game in one region
  /// Demand pipeline (decision kinds; zero for kForceRelease).
  double predicted_players = 0.0;  ///< sum of per-group predictions
  double actual_players = 0.0;     ///< materialized load of the same step
  double margin_cpu = 0.0;    ///< CPU added by the safety padding (§V-C)
  double demand_cpu = 0.0;    ///< padded demand through the load model
  double held_cpu = 0.0;      ///< CPU held before this decision
  double released_cpu = 0.0;  ///< planned releases (kMatch) or eviction size
  double requested_cpu = 0.0; ///< missing difference sent to the matcher
  double granted_cpu = 0.0;
  double unmet_cpu = 0.0;     ///< shortfall left after the walk
  /// Chosen center: the first granting data center of the walk, or for
  /// kForceRelease the center the allocation was evicted from. kAuditNoDc
  /// when no center granted.
  std::int32_t dc = kAuditNoDc;
  /// Fault / policy cause: "outage", "latency", "capacity" or "shed" for
  /// kForceRelease; empty otherwise.
  std::string cause;
  std::uint64_t alloc_id = 0;  ///< evicted allocation (kForceRelease only)
  std::vector<AuditOffer> offers;  ///< visited candidates, walk order

  friend bool operator==(const AuditRecord&, const AuditRecord&) = default;
};

// The JSONL line's field list (obs/fields.hpp): the trail's writer and
// reader and the checkpoint's audit section all walk it.
void fields(auto& v, Of<AuditOffer> auto& offer) {
  v("dc", offer.dc);
  v("outcome", by_name(offer.outcome, kOfferOutcomeNames));
  v("cpu", offer.cpu);
  v("until_step", offer.until_step);
}

void fields(auto& v, Of<AuditRecord> auto& record) {
  v("seq", record.seq);
  v("step", record.step);
  v("kind", by_name(record.kind, kAuditKindNames));
  v("game", record.game);
  v("region", record.region);
  v("predicted", record.predicted_players);
  v("actual", record.actual_players);
  v("margin_cpu", record.margin_cpu);
  v("demand_cpu", record.demand_cpu);
  v("held_cpu", record.held_cpu);
  v("released_cpu", record.released_cpu);
  v("requested_cpu", record.requested_cpu);
  v("granted_cpu", record.granted_cpu);
  v("unmet_cpu", record.unmet_cpu);
  v("dc", record.dc);
  v("cause", record.cause);
  v("alloc_id", record.alloc_id);
  v("offers", record.offers);
}

/// Append-only decision log. The simulation thread appends (batched per
/// step, after the step's actual demand is known); the telemetry thread
/// reads snapshots through the same mutex, so `GET /audit` can serve a
/// consistent prefix of a live run. Content is deterministic; only the
/// *existence* of the trail is an observability choice.
class AuditTrail {
 public:
  /// Appends one record, assigning the next sequence number.
  void append(AuditRecord record) EXCLUDES(mutex_);

  /// Appends a whole step's records in order under one lock acquisition,
  /// assigning consecutive sequence numbers; `batch` is left empty.
  void append_batch(std::vector<AuditRecord>& batch) EXCLUDES(mutex_);

  std::size_t size() const EXCLUDES(mutex_);
  std::vector<AuditRecord> records() const
      EXCLUDES(mutex_);  ///< copy, in recording order

  /// One JSON object per line; keys are fixed and always present, so a
  /// trail's bytes are a stable function of its records:
  /// {"seq":N,"step":N,"kind":"match",...,"offers":[{...}]}
  void write_jsonl(std::ostream& out) const EXCLUDES(mutex_);
  std::string to_jsonl() const EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;
  std::vector<AuditRecord> records_ GUARDED_BY(mutex_);
  std::uint64_t next_seq_ GUARDED_BY(mutex_) = 0;
};

/// Serializes one record as its JSONL line (no trailing newline).
std::string audit_record_to_json(const AuditRecord& record);

/// Parses a stream produced by AuditTrail::write_jsonl back into records.
/// Blank lines are skipped; throws std::invalid_argument on a malformed
/// line: bad JSON, a missing or mistyped field, an unknown name, or an
/// integer its member cannot hold.
std::vector<AuditRecord> read_audit_jsonl(std::istream& in);

}  // namespace mmog::obs
