// wimesh::trace — ring accounting, category filtering, span self-time,
// exporter structure, and the cross-jobs determinism contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

#include "wimesh/batch/runner.h"
#include "wimesh/common/json.h"
#include "wimesh/core/scenario.h"
#include "wimesh/sched/schedule_cache.h"
#include "wimesh/trace/export.h"
#include "wimesh/trace/trace.h"

using namespace wimesh;

namespace {

constexpr char kScenario[] = R"(# trace_test scenario
topology = chain 3 100
comm_range = 110
interference_range = 220
phy = ofdm54
frame_ms = 10
control_slots = 4
data_slots = 96
scheduler = ilp-delay
routing = hop
mac = tdma
duration_s = 1
seed = 7

voip 0 0 2 g729 100
)";

// Minimal structural JSON validator — enough to catch malformed escaping,
// trailing commas and unbalanced scopes in the exporter's output.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int k = 0; k < 4; ++k) {
            ++pos_;
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

trace::Record make_record(std::int64_t stamp) {
  trace::Record r;
  r.t0 = SimTime::nanoseconds(stamp);
  r.t1 = r.t0;
  r.type = trace::EventType::kFrameStart;
  r.node = 0;
  r.a = stamp;
  return r;
}

std::vector<batch::RunOutcome> traced_sweep(int jobs) {
  auto scenario = parse_scenario(kScenario);
  EXPECT_TRUE(scenario.has_value());
  ScheduleCache cache;  // shared within the batch, fresh per call
  batch::BatchOptions options;
  options.jobs = jobs;
  options.schedule_cache = &cache;
  options.trace = trace::TraceConfig{trace::kAll, std::size_t{1} << 16};
  return batch::run_batch(batch::seed_sweep(*scenario, 1, 4), options);
}

TEST(TracerRing, OverflowKeepsNewestAndCountsDrops) {
  trace::Tracer tracer(trace::TraceConfig{trace::kAll, 8});
  for (std::int64_t i = 0; i < 20; ++i) {
    tracer.record(trace::kTdma, make_record(i));
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].a, static_cast<std::int64_t>(12 + i));
  }
}

TEST(TracerRing, NoDropsBelowCapacity) {
  trace::Tracer tracer(trace::TraceConfig{trace::kAll, 8});
  for (std::int64_t i = 0; i < 8; ++i) {
    tracer.record(trace::kTdma, make_record(i));
  }
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.snapshot().size(), 8u);
}

TEST(TracerCategories, FilterRecordsOnlyEnabled) {
  trace::Tracer tracer(trace::TraceConfig{trace::kTdma | trace::kSync, 64});
  const trace::Scope scope(&tracer);
  trace::event(trace::EventType::kFrameStart, SimTime::zero(), 0, 1);
  trace::event(trace::EventType::kTxStart, SimTime::zero(), 0, 1);  // wifi
  trace::event(trace::EventType::kSyncWave, SimTime::zero(), 0, 1);
  trace::event(trace::EventType::kDesDispatch, SimTime::zero(), -1, 1);
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, trace::EventType::kFrameStart);
  EXPECT_EQ(records[1].type, trace::EventType::kSyncWave);
}

TEST(TracerCategories, ParseNamesAndRejectUnknown) {
  EXPECT_EQ(trace::parse_categories("tdma,sync"), trace::kTdma | trace::kSync);
  EXPECT_EQ(trace::parse_categories("all"), trace::kAll);
  EXPECT_EQ(trace::parse_categories("on"), trace::kAll);
  EXPECT_EQ(trace::parse_categories("off"), 0u);
  EXPECT_EQ(trace::parse_categories(" des , prof "),
            trace::kDes | trace::kProf);
  std::string error;
  EXPECT_EQ(trace::parse_categories("tdma,bogus", &error), 0u);
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST(TracerScope, BindsPerThreadAndRestores) {
  EXPECT_EQ(trace::current(), nullptr);
  trace::Tracer outer_tracer(trace::TraceConfig{trace::kAll, 16});
  {
    const trace::Scope outer(&outer_tracer);
    EXPECT_EQ(trace::current(), &outer_tracer);
    trace::Tracer inner_tracer(trace::TraceConfig{trace::kAll, 16});
    {
      const trace::Scope inner(&inner_tracer);
      EXPECT_EQ(trace::current(), &inner_tracer);
    }
    EXPECT_EQ(trace::current(), &outer_tracer);
  }
  EXPECT_EQ(trace::current(), nullptr);
  // And recording without a scope is a silent no-op.
  trace::event(trace::EventType::kFrameStart, SimTime::zero(), 0, 1);
}

TEST(TracerSpans, SelfTimeExcludesChildren) {
  trace::Tracer tracer(trace::TraceConfig{trace::kAll, 64});
  const trace::Scope scope(&tracer);
  {
    trace::Span outer(trace::SpanName::kQosPlan);
    { trace::Span inner(trace::SpanName::kIlpSolve); }
    { trace::Span inner(trace::SpanName::kIlpSolve); }
  }
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 3u);
  // Children pop first; the parent record is last.
  const trace::Record& outer = records[2];
  EXPECT_EQ(outer.name, static_cast<std::uint16_t>(trace::SpanName::kQosPlan));
  const std::int64_t child_total = records[0].a + records[1].a;
  EXPECT_EQ(outer.b, outer.a - child_total);
  EXPECT_GE(outer.b, 0);
}

TEST(TracerSpans, VirtualRangeIsRecorded) {
  trace::Tracer tracer(trace::TraceConfig{trace::kAll, 16});
  const trace::Scope scope(&tracer);
  {
    trace::Span span(trace::SpanName::kFaultRecovery,
                     SimTime::milliseconds(2));
    span.set_virtual_range(SimTime::milliseconds(2),
                           SimTime::milliseconds(30));
  }
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].t0, SimTime::milliseconds(2));
  EXPECT_EQ(records[0].t1, SimTime::milliseconds(30));
}

TEST(TraceExport, ChromeJsonIsStructurallyValid) {
  const auto outcomes = traced_sweep(1);
  ASSERT_FALSE(outcomes.empty());
  ASSERT_TRUE(outcomes.front().ok);
  ASSERT_NE(outcomes.front().trace, nullptr);
  trace::ExportOptions opts;
  opts.pid = 1;
  opts.process_label = "trace_test";
  const std::string json = trace::to_chrome_json(*outcomes.front().trace, opts);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\""), std::string::npos);
  // Wall-clock spans must never leak into the deterministic export.
  EXPECT_EQ(json.find("\"cat\":\"prof\""), std::string::npos);
}

TEST(TraceExport, DroppedCountSurfacesInJson) {
  trace::Tracer tracer(trace::TraceConfig{trace::kAll, 4});
  const trace::Scope scope(&tracer);
  for (std::int64_t i = 0; i < 10; ++i) {
    trace::event(trace::EventType::kFrameStart,
                 SimTime::milliseconds(i), 0, i);
  }
  const std::string json = trace::to_chrome_json(tracer);
  EXPECT_NE(json.find("\"recorded\":10"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":6"), std::string::npos);
}

TEST(TraceExport, OtherDataCountsExcludeProfSpans) {
  // With a shared schedule cache, which run records a solve span depends
  // on thread timing — so span records must not leak into the exported
  // counts either (this broke cross-jobs byte-identity once).
  trace::Tracer tracer(trace::TraceConfig{trace::kAll, 64});
  const trace::Scope scope(&tracer);
  trace::event(trace::EventType::kFrameStart, SimTime::zero(), 0, 1);
  { trace::Span span(trace::SpanName::kIlpSolve); }
  EXPECT_EQ(tracer.recorded(), 2u);
  EXPECT_EQ(tracer.recorded_in(trace::kAll & ~trace::kProf), 1u);
  const std::string json = trace::to_chrome_json(tracer);
  EXPECT_NE(json.find("\"recorded\":1,"), std::string::npos);
}

// Pins the exporter's exact bytes: a negative and a fractional timestamp,
// a string argument, an escaped process label, an event without node, and
// the otherData counts after a ring overflow.
TEST(TraceExport, ChromeJsonBytesArePinned) {
  trace::Tracer tracer(trace::TraceConfig{trace::kAll, 4});
  const trace::Scope scope(&tracer);
  trace::event(trace::EventType::kDesDispatch, SimTime::zero(), -1, 1);
  trace::event(trace::EventType::kFrameStart, SimTime::nanoseconds(-1500), -1,
               3);
  trace::event(trace::EventType::kBlockStart, SimTime::nanoseconds(1234567), 2,
               5, 10, 2, 7);
  trace::event(trace::EventType::kRxCorrupted, SimTime::nanoseconds(2001), 1,
               2, static_cast<std::int64_t>(trace::RxDropCause::kSinr));
  trace::event(trace::EventType::kSyncMasterFail, SimTime::microseconds(10),
               4);
  trace::ExportOptions opts;
  opts.pid = 3;
  opts.process_label = "mesh \"A\"\\1";
  const std::string expected =
      R"({"traceEvents":[)"
      R"({"name":"process_name","ph":"M","pid":3,"tid":0,)"
      R"("args":{"name":"mesh \"A\"\\1"}},)"
      R"({"name":"thread_name","ph":"M","pid":3,"tid":0,"args":{"name":"global"}},)"
      R"({"name":"thread_name","ph":"M","pid":3,"tid":2,"args":{"name":"node 1"}},)"
      R"({"name":"thread_name","ph":"M","pid":3,"tid":3,"args":{"name":"node 2"}},)"
      R"({"name":"thread_name","ph":"M","pid":3,"tid":5,"args":{"name":"node 4"}},)"
      R"({"name":"tdma.frame_start","cat":"tdma","ph":"i","s":"t","ts":-1.500,)"
      R"("pid":3,"tid":0,"args":{"frame":3}},)"
      R"({"name":"tdma.block_start","cat":"tdma","ph":"i","s":"t",)"
      R"("ts":1234.567,"pid":3,"tid":3,)"
      R"("args":{"node":2,"link":5,"slot":10,"len":2,"frame":7}},)"
      R"({"name":"wifi.rx_corrupted","cat":"wifi","ph":"i","s":"t","ts":2.001,)"
      R"("pid":3,"tid":2,"args":{"node":1,"from":2,"cause":"sinr"}},)"
      R"({"name":"sync.master_fail","cat":"sync","ph":"i","s":"t","ts":10.000,)"
      R"("pid":3,"tid":5,"args":{"node":4}}],)"
      R"("otherData":{"recorded":5,"dropped":1}})"
      "\n";
  EXPECT_EQ(trace::to_chrome_json(tracer, opts), expected);
}

TEST(TraceExport, SlotCsvListsGrantBlocks) {
  const auto outcomes = traced_sweep(1);
  ASSERT_TRUE(outcomes.front().ok);
  const std::string csv = trace::to_slot_csv(*outcomes.front().trace);
  ASSERT_EQ(csv.rfind("frame,node,link,slot_start,slot_len,fire_ms\n", 0), 0u);
  // A 1 s TDMA run must release at least one grant block per frame.
  EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 50);
  // Every row has exactly 6 comma-separated fields.
  std::size_t line_start = csv.find('\n') + 1;
  while (line_start < csv.size()) {
    const std::size_t line_end = csv.find('\n', line_start);
    ASSERT_NE(line_end, std::string::npos);
    const std::string line = csv.substr(line_start, line_end - line_start);
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 5) << line;
    line_start = line_end + 1;
  }
}

TEST(TraceExport, SpanSummaryAggregatesRuns) {
  const auto outcomes = traced_sweep(1);
  std::vector<const trace::Tracer*> tracers;
  for (const auto& o : outcomes) tracers.push_back(o.trace.get());
  const std::string summary = trace::span_summary(tracers);
  EXPECT_NE(summary.find("sim.run"), std::string::npos);
  EXPECT_NE(summary.find("qos.plan"), std::string::npos);
  EXPECT_NE(summary.find("batch.run"), std::string::npos);
}

// The acceptance criterion: the virtual-time trace of every run is
// bit-identical whether the sweep ran on 1 worker or 8.
TEST(TraceDeterminism, IdenticalAcrossJobCounts) {
  const auto serial = traced_sweep(1);
  const auto parallel = traced_sweep(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok);
    ASSERT_TRUE(parallel[i].ok);
    ASSERT_NE(serial[i].trace, nullptr);
    ASSERT_NE(parallel[i].trace, nullptr);
    trace::ExportOptions opts;
    opts.pid = static_cast<std::int64_t>(serial[i].run_index);
    opts.process_label = serial[i].label;
    EXPECT_EQ(trace::to_chrome_json(*serial[i].trace, opts),
              trace::to_chrome_json(*parallel[i].trace, opts))
        << serial[i].label;
    EXPECT_EQ(trace::to_slot_csv(*serial[i].trace),
              trace::to_slot_csv(*parallel[i].trace))
        << serial[i].label;
  }
}

TEST(TraceScenarioKey, ParsesAndRejects) {
  const std::string base(kScenario);
  auto with_filter = parse_scenario(base + "trace = tdma,sync\n");
  ASSERT_TRUE(with_filter.has_value());
  EXPECT_EQ(with_filter->config.trace_categories,
            trace::kTdma | trace::kSync);
  auto off = parse_scenario(base + "trace = off\n");
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(off->config.trace_categories, 0u);
  auto bad = parse_scenario(base + "trace = nonsense\n");
  ASSERT_FALSE(bad.has_value());
  EXPECT_NE(bad.error().find("nonsense"), std::string::npos);
}

// --trace OUT[:cats]: one splitter shared by wimesh_run and the benches.
TEST(TraceTarget, PathWithColonAndSlashStaysWhole) {
  for (const std::string arg : {"runs/a:b/out.json", "t:v1.json", "t.json:"}) {
    const auto t = trace::parse_trace_target(arg);
    ASSERT_TRUE(t.has_value()) << arg << ": " << t.error();
    EXPECT_EQ(t->path, arg);
    EXPECT_EQ(t->categories, 0u);
  }
}

TEST(TraceTarget, JsonPathWithCategorySuffix) {
  const auto t = trace::parse_trace_target("out/t.json:tdma,sync");
  ASSERT_TRUE(t.has_value()) << t.error();
  EXPECT_EQ(t->path, "out/t.json");
  EXPECT_EQ(t->categories, trace::kTdma | trace::kSync);
}

TEST(TraceTarget, UnknownCategoryIsNamedError) {
  const auto t = trace::parse_trace_target("t.json:tdma,bogus");
  ASSERT_FALSE(t.has_value());
  EXPECT_NE(t.error().find("unknown trace category 'bogus'"),
            std::string::npos);
}

TEST(TraceTarget, EmptyPathIsError) {
  for (const std::string arg : {"", ":tdma"}) {
    const auto t = trace::parse_trace_target(arg);
    ASSERT_FALSE(t.has_value()) << arg;
    EXPECT_NE(t.error().find("path is empty"), std::string::npos) << arg;
  }
}

TEST(TraceTarget, LabeledPathGoesBeforeExtension) {
  EXPECT_EQ(trace::labeled_path("t.json", "seed=3"), "t.seed=3.json");
  EXPECT_EQ(trace::labeled_path("out.d/t", "seed=3"), "out.d/t.seed=3");
  EXPECT_EQ(trace::labeled_path("t", "seed=3"), "t.seed=3");
}

// Satellite: the hoisted wimesh::json_escape handles the full control and
// non-ASCII range (the old batch-local version passed invalid bytes raw).
TEST(JsonEscape, ControlCharactersAndUtf8) {
  EXPECT_EQ(json_escape("plain ascii 123"), "plain ascii 123");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  // Valid UTF-8 passes through byte-for-byte.
  EXPECT_EQ(json_escape("caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x9a\x80"),
            "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x9a\x80");
  // Invalid sequences become U+FFFD instead of corrupting the document.
  EXPECT_EQ(json_escape(std::string("\xff", 1)), "\xef\xbf\xbd");
  EXPECT_EQ(json_escape(std::string("a\x80z", 3)), "a\xef\xbf\xbdz");
  // Truncated lead byte and overlong encoding are invalid, not passthrough.
  EXPECT_EQ(json_escape(std::string("\xc3", 1)), "\xef\xbf\xbd");
  EXPECT_EQ(json_escape(std::string("\xc0\xaf", 2)),
            "\xef\xbf\xbd\xef\xbf\xbd");
}

}  // namespace
