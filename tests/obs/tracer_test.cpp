#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "support/test_dir.hpp"

namespace mmog::obs {
namespace {

TEST(TracerTest, RecordsEventsInSequenceOrder) {
  Tracer tracer;
  tracer.instant("alloc.granted", "alloc", 3, {{"dc", "EU-1"}});
  tracer.complete_span("predict", "phase", 3, 10.0, 2.5);
  ASSERT_EQ(tracer.size(), 2u);
  const auto events = tracer.events();
  EXPECT_EQ(events[0].kind, TraceKind::kInstant);
  EXPECT_EQ(events[0].name, "alloc.granted");
  EXPECT_EQ(events[0].category, "alloc");
  EXPECT_EQ(events[0].step, 3u);
  EXPECT_EQ(events[0].seq, 0u);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].key, "dc");
  EXPECT_EQ(events[0].args[0].value, "EU-1");
  EXPECT_EQ(events[1].kind, TraceKind::kSpan);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_DOUBLE_EQ(events[1].ts_us, 10.0);
  EXPECT_DOUBLE_EQ(events[1].dur_us, 2.5);
}

TEST(TracerTest, JsonlRoundTripPreservesContent) {
  Tracer tracer;
  tracer.instant("event.under_allocation", "event", 7,
                 {{"region", "Europe"}, {"cpu", "12.5"}});
  tracer.complete_span("step", "step", 7, 123.456, 78.9,
                       {{"units", "4"}});
  tracer.instant("quoted \"name\"\n", "esc\\cat", 8);

  std::stringstream ss;
  tracer.write_jsonl(ss);
  const auto parsed = read_trace_jsonl(ss);

  const auto original = tracer.events();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, original[i].kind) << i;
    EXPECT_EQ(parsed[i].name, original[i].name) << i;
    EXPECT_EQ(parsed[i].category, original[i].category) << i;
    EXPECT_EQ(parsed[i].step, original[i].step) << i;
    EXPECT_EQ(parsed[i].seq, original[i].seq) << i;
    EXPECT_DOUBLE_EQ(parsed[i].ts_us, original[i].ts_us) << i;
    EXPECT_DOUBLE_EQ(parsed[i].dur_us, original[i].dur_us) << i;
    EXPECT_EQ(parsed[i].args, original[i].args) << i;
  }
}

TEST(TracerTest, JsonlOneObjectPerLine) {
  Tracer tracer;
  tracer.instant("a", "c", 0);
  tracer.instant("b", "c", 1);
  std::stringstream ss;
  tracer.write_jsonl(ss);
  std::size_t lines = 0;
  for (std::string line; std::getline(ss, line);) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2u);
}

TEST(TracerTest, ReadSkipsBlankLinesAndRejectsGarbage) {
  {
    std::stringstream ss(
        "\n{\"seq\":0,\"kind\":\"instant\",\"name\":\"x\",\"cat\":\"c\","
        "\"step\":2,\"ts_us\":1.5,\"dur_us\":0,\"args\":{}}\n\n");
    const auto events = read_trace_jsonl(ss);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "x");
    EXPECT_EQ(events[0].step, 2u);
  }
  {
    std::stringstream ss("not json\n");
    EXPECT_THROW(read_trace_jsonl(ss), std::invalid_argument);
  }
}

TEST(TracerTest, ReadRejectsValuesItCannotHold) {
  // A negative seq, a timestamp no double holds, a fractional step, a line
  // missing members the writer always emits, and a non-string arg value.
  const char* const lines[] = {
      "{\"seq\":-1,\"kind\":\"instant\",\"name\":\"x\",\"cat\":\"c\","
      "\"step\":0,\"ts_us\":0,\"dur_us\":0,\"args\":{}}",
      "{\"seq\":0,\"kind\":\"instant\",\"name\":\"x\",\"cat\":\"c\","
      "\"step\":0,\"ts_us\":1e999,\"dur_us\":0,\"args\":{}}",
      "{\"seq\":0,\"kind\":\"instant\",\"name\":\"x\",\"cat\":\"c\","
      "\"step\":2.5,\"ts_us\":0,\"dur_us\":0,\"args\":{}}",
      "{\"seq\":0,\"kind\":\"instant\",\"name\":\"x\"}",
      "{\"seq\":0,\"kind\":\"instant\",\"name\":\"x\",\"cat\":\"c\","
      "\"step\":0,\"ts_us\":0,\"dur_us\":0,\"args\":{\"k\":1}}",
  };
  for (const char* line : lines) {
    std::stringstream ss(line);
    EXPECT_THROW(read_trace_jsonl(ss), std::invalid_argument) << line;
  }
}

TEST(TracerTest, ChromeTraceIsWellFormedPerfettoInput) {
  Tracer tracer;
  tracer.complete_span("step", "step", 1, 0.0, 50.0);
  tracer.instant("alloc.granted", "alloc", 1, {{"dc", "EU-1"}});
  std::stringstream ss;
  tracer.write_chrome_trace(ss);
  const auto out = ss.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  // The step lands in args so Perfetto shows which simulation step a span
  // belongs to.
  EXPECT_NE(out.find("\"step\":\"1\""), std::string::npos);
  EXPECT_EQ(out.front(), '{');
}

TEST(TracerTest, NowIsMonotonicNonNegative) {
  Tracer tracer;
  const double a = tracer.now_us();
  const double b = tracer.now_us();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

// ---------------------------------------------------------------------------
// TraceFileGuard: the CLI arms one before core::simulate so a trace file is
// written even when the run unwinds through an exception.

class TempTracePath {
 public:
  const std::string& path() const { return path_; }
  std::string contents() const {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

 private:
  const test::TestDir dir_;
  const std::string path_ = (dir_ / "trace.jsonl").string();
};

TEST(TraceFileGuardTest, FlushWritesOnceAndDisarmsDestructor) {
  Tracer tracer;
  tracer.instant("alloc.granted", "alloc", 1);
  const TempTracePath tmp;
  {
    TraceFileGuard guard(&tracer, tmp.path(), TraceFileGuard::Format::kJsonl);
    guard.flush();
    const auto after_flush = tmp.contents();
    EXPECT_NE(after_flush.find("alloc.granted"), std::string::npos);
    // More events after flush: the destructor must not rewrite the file.
    tracer.instant("late.event", "alloc", 2);
  }
  EXPECT_EQ(tmp.contents().find("late.event"), std::string::npos);
}

TEST(TraceFileGuardTest, ExceptionalExitStillWritesTheTrace) {
  Tracer tracer;
  tracer.instant("alloc.granted", "alloc", 1);
  const TempTracePath tmp;
  try {
    TraceFileGuard guard(&tracer, tmp.path(), TraceFileGuard::Format::kJsonl);
    throw std::runtime_error("simulated failure mid-run");
  } catch (const std::runtime_error&) {
  }
  std::ifstream in(tmp.path());
  const auto events = read_trace_jsonl(in);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "alloc.granted");
}

TEST(TraceFileGuardTest, FlushThrowsOnUnwritablePathButUnwindDoesNot) {
  Tracer tracer;
  tracer.instant("a", "c", 0);
  const std::string bad = ::testing::TempDir() + "no_such_dir/t.jsonl";
  {
    TraceFileGuard guard(&tracer, bad, TraceFileGuard::Format::kJsonl);
    EXPECT_THROW(guard.flush(), std::runtime_error);
  }
  // Destructor path on the same bad target: best-effort, never throws.
  try {
    TraceFileGuard guard(&tracer, bad, TraceFileGuard::Format::kJsonl);
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
}

TEST(TraceFileGuardTest, NullTracerOrEmptyPathIsInert) {
  const TempTracePath tmp;
  { TraceFileGuard guard(nullptr, tmp.path(), TraceFileGuard::Format::kJsonl); }
  EXPECT_TRUE(tmp.contents().empty());
  Tracer tracer;
  tracer.instant("a", "c", 0);
  { TraceFileGuard guard(&tracer, "", TraceFileGuard::Format::kJsonl); }
}

}  // namespace
}  // namespace mmog::obs
