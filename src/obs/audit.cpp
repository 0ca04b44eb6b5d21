#include "obs/audit.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/jsonio.hpp"

namespace mmog::obs {

std::string_view offer_outcome_name(OfferOutcome outcome) {
  for (const auto& [value, name] : kOfferOutcomeNames) {
    if (value == outcome) return name;
  }
  return "unknown";
}

OfferOutcome offer_outcome_from_name(std::string_view name) {
  for (const auto& [value, candidate] : kOfferOutcomeNames) {
    if (candidate == name) return value;
  }
  throw std::invalid_argument("audit: unknown offer outcome \"" +
                              std::string(name) + "\"");
}

std::string_view audit_kind_name(AuditKind kind) {
  for (const auto& [value, name] : kAuditKindNames) {
    if (value == kind) return name;
  }
  return "unknown";
}

AuditKind audit_kind_from_name(std::string_view name) {
  for (const auto& [value, candidate] : kAuditKindNames) {
    if (candidate == name) return value;
  }
  throw std::invalid_argument("audit: unknown record kind \"" +
                              std::string(name) + "\"");
}

void AuditTrail::append(AuditRecord record) {
  util::MutexLock lock(mutex_);
  record.seq = next_seq_++;
  records_.push_back(std::move(record));
}

void AuditTrail::append_batch(std::vector<AuditRecord>& batch) {
  util::MutexLock lock(mutex_);
  for (auto& record : batch) {
    record.seq = next_seq_++;
    records_.push_back(std::move(record));
  }
  batch.clear();
}

std::size_t AuditTrail::size() const {
  util::MutexLock lock(mutex_);
  return records_.size();
}

std::vector<AuditRecord> AuditTrail::records() const {
  util::MutexLock lock(mutex_);
  return records_;
}

std::string audit_record_to_json(const AuditRecord& record) {
  std::string line;
  line.reserve(256);
  FieldWriter writer(line);
  writer(record);
  return line;
}

void AuditTrail::write_jsonl(std::ostream& out) const { out << to_jsonl(); }

std::string AuditTrail::to_jsonl() const {
  const auto copy = records();
  std::string out;
  for (const auto& record : copy) {
    out += audit_record_to_json(record);
    out += '\n';
  }
  return out;
}

std::vector<AuditRecord> read_audit_jsonl(std::istream& in) {
  std::vector<AuditRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\n\v\f\r") == std::string::npos) continue;
    const JsonValue doc = parse_json(line);
    FieldReader<std::invalid_argument> reader(doc, "audit record");
    fields(reader, records.emplace_back());
  }
  return records;
}

}  // namespace mmog::obs
