// mmog-diff: regression verdict between two canonical run reports, two
// decision-audit trails, or two checkpoint files produced by
// mmog_simulate / mmog_chaos.
//
// Usage:
//   mmog_diff A B [--kind report|audit|checkpoint]
//            [--timing-tolerance PCT] [--quiet]
//
// Report mode (default; a ".jsonl" extension on both inputs selects audit
// mode, and files beginning with the "mmog-ckpt" magic select checkpoint
// mode): each input holds one RunReport object (--report-out) or a JSON
// array of labeled reports (mmog_chaos --report-out). Reports are paired
// by label; every config entry and outcome field must match EXACTLY —
// outcome sections are a deterministic function of (config, seed), so for
// same-seed runs byte equality is the correct bar, at any --threads
// value. Phase timing quantiles (p50) are compared only when
// --timing-tolerance PCT is given, as relative drift; wall-clock seconds,
// peak RSS and the thread count are execution details and never compared.
//
// Audit mode: both inputs are JSONL decision trails (--audit-out or
// GET /audit). Trails must match record for record.
//
// Checkpoint mode: both inputs are --checkpoint-out files. Each side is
// first validated (magic, version, FNV footer — a corrupted file is a
// usage error, exit 2), then compared field for field; differences are
// reported with their full path, e.g. "unit[3].groups[2].state[17]".
//
// Exit status: 0 = no regression, 1 = regression (any outcome/config
// difference, or timing/allocations beyond tolerance), 2 = usage or I/O
// error. The verdict and the first differences are printed to stdout.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "ckpt/checkpoint.hpp"
#include "obs/report.hpp"
#include "util/args.hpp"

using namespace mmog;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

void print_notes(const obs::DiffResult& diff, bool quiet) {
  if (quiet) return;
  for (const auto& note : diff.notes) {
    std::printf("  %s\n", note.c_str());
  }
}

int finish(const obs::DiffResult& diff, const std::string& what,
           bool quiet) {
  if (diff.regression()) {
    std::printf("REGRESSION: %s %s\n", what.c_str(),
                !diff.outcome_identical ? "outcome differs"
                                        : "timing beyond tolerance");
    print_notes(diff, quiet);
    return 1;
  }
  std::printf("OK: %s identical%s\n", what.c_str(),
              diff.notes.empty() ? "" : " (timing within tolerance)");
  return 0;
}

int diff_report_files(const std::string& path_a, const std::string& path_b,
                      double timing_tolerance_pct, bool quiet) {
  const auto reports_a = obs::parse_report_file(slurp(path_a));
  const auto reports_b = obs::parse_report_file(slurp(path_b));
  int worst = 0;
  std::size_t paired = 0;
  for (const auto& a : reports_a) {
    const obs::RunReport* b = nullptr;
    for (const auto& candidate : reports_b) {
      if (candidate.label == a.label) {
        b = &candidate;
        break;
      }
    }
    if (b == nullptr) {
      std::printf("REGRESSION: label \"%s\" only in %s\n", a.label.c_str(),
                  path_a.c_str());
      worst = 1;
      continue;
    }
    ++paired;
    const auto diff = obs::diff_reports(a, *b, timing_tolerance_pct);
    const std::string what =
        a.label.empty() ? "report" : "report \"" + a.label + "\"";
    worst = std::max(worst, finish(diff, what, quiet));
  }
  if (paired < reports_b.size()) {
    for (const auto& b : reports_b) {
      bool found = false;
      for (const auto& a : reports_a) found = found || a.label == b.label;
      if (!found) {
        std::printf("REGRESSION: label \"%s\" only in %s\n",
                    b.label.c_str(), path_b.c_str());
        worst = 1;
      }
    }
  }
  return worst;
}

int diff_audit_files(const std::string& path_a, const std::string& path_b,
                     bool quiet) {
  std::ifstream in_a(path_a);
  if (!in_a) throw std::runtime_error("cannot read " + path_a);
  std::ifstream in_b(path_b);
  if (!in_b) throw std::runtime_error("cannot read " + path_b);
  const auto records_a = obs::read_audit_jsonl(in_a);
  const auto records_b = obs::read_audit_jsonl(in_b);
  const auto diff = obs::diff_audits(records_a, records_b);
  std::printf("audit trails: %zu vs %zu records\n", records_a.size(),
              records_b.size());
  return finish(diff, "audit trail", quiet);
}

int diff_checkpoint_files(const std::string& path_a,
                          const std::string& path_b, bool quiet) {
  const auto diff = ckpt::diff_checkpoints(slurp(path_a), slurp(path_b));
  return finish(diff, "checkpoint", quiet);
}

/// A checkpoint file starts with its magic on the first line; extensions
/// are not distinctive enough (checkpoints are JSONL too).
bool looks_like_checkpoint(const std::string& text) {
  return text.starts_with("{\"magic\":\"") &&
         text.find(ckpt::kMagic) != std::string::npos &&
         text.find(ckpt::kMagic) < 32;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.has("help") || args.positional().size() != 2) {
    std::printf(
        "usage: %s A B [--kind report|audit|checkpoint] "
        "[--timing-tolerance PCT] [--quiet]\n",
        args.program().c_str());
    return args.has("help") ? 0 : 2;
  }
  try {
    const std::string& path_a = args.positional()[0];
    const std::string& path_b = args.positional()[1];
    std::string kind = args.get("kind", "");
    if (kind.empty()) {
      const std::string head_a = slurp(path_a);
      const std::string head_b = slurp(path_b);
      if (looks_like_checkpoint(head_a) && looks_like_checkpoint(head_b)) {
        kind = "checkpoint";
      } else {
        kind = ends_with(path_a, ".jsonl") && ends_with(path_b, ".jsonl")
                   ? "audit"
                   : "report";
      }
    }
    const bool quiet = args.has("quiet");
    if (kind == "checkpoint") {
      return diff_checkpoint_files(path_a, path_b, quiet);
    }
    if (kind == "audit") {
      return diff_audit_files(path_a, path_b, quiet);
    }
    if (kind == "report") {
      return diff_report_files(path_a, path_b,
                               args.get_double("timing-tolerance", -1.0),
                               quiet);
    }
    throw std::invalid_argument("unknown --kind " + kind);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
