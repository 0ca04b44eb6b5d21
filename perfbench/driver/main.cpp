// mmog_perfbench: runs one benchmark workload and prints its metrics.
//
// Usage:
//   mmog_perfbench --workload fleet|paper|chaos [--seed N] [--seconds S]
//                  [--trace 0|1] [--pin-out FILE]
//
// Prints one human-readable line per metric (median, sample count and
// quartiles), then, as the last line of stdout, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes the spans to .bench_build/perfbench-spans-<workload>-<seed>
// .jsonl. Scratch files (the paper CSV, checkpoints) live in
// .bench_build/perfbench-work-<pid> and are removed at exit; both paths are
// relative to the working directory. At the default seed the first pass's
// outcome is checked against perfbench/pinned/<workload>.json; --pin-out
// writes a new pin instead. Exit 0 when a result was printed, 2 on bad
// arguments.

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

#include "driver/workload.hpp"
#include "util/args.hpp"

namespace {

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument("--" + flag + " expects a number, got \"" +
                                text + "\"");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  perfbench::RunOptions options;
  fs::path work_dir;
  try {
    const mmog::util::Args args(argc, argv);
    options.workload = perfbench::parse_workload(args.get("workload", ""));
    options.seed = parse_number<std::uint64_t>(
        "seed", args.get("seed", std::to_string(perfbench::kDefaultSeed)));
    options.seconds =
        parse_number<double>("seconds", args.get("seconds", "10"));
    if (!(options.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be > 0");
    }
    const auto trace = args.get("trace", "0");
    if (trace != "0" && trace != "1") {
      throw std::invalid_argument("--trace expects 0 or 1, got \"" + trace +
                                  "\"");
    }
    options.trace = trace == "1";
    const std::string name(perfbench::workload_name(options.workload));
    work_dir = ".bench_build/perfbench-work-" + std::to_string(::getpid());
    options.work_dir = work_dir.string();
    if (options.trace) {
      options.spans_out = ".bench_build/perfbench-spans-" + name + "-" +
                          std::to_string(options.seed) + ".jsonl";
    }
    options.pin_out = args.get("pin-out", "");
    if (options.seed == perfbench::kDefaultSeed && options.pin_out.empty()) {
      options.pinned_dir = PERFBENCH_PINNED_DIR;
    }
    fs::create_directories(work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mmog_perfbench: %s\n", e.what());
    return 2;
  }

  const perfbench::RunResult result = perfbench::run_workload(options);
  std::error_code ignored;
  fs::remove_all(work_dir, ignored);

  for (const auto& note : result.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const auto& m : result.metrics) {
    std::printf("%-34s %16.6g %-14s median of %zu (q1 %.6g, q3 %.6g)\n",
                m.name.c_str(), m.value, m.unit.c_str(), m.samples, m.q1,
                m.q3);
  }
  if (!options.spans_out.empty()) {
    std::printf("spans written to %s\n", options.spans_out.c_str());
  }
  std::printf("%s\n", perfbench::result_json(result.correct, result.attempted,
                                             result.failed, result.metrics)
                          .c_str());
  return 0;
}
