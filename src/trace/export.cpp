#include "wimesh/trace/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "wimesh/common/json.h"

namespace wimesh::trace {

namespace {

// Virtual timestamp in microseconds with exact nanosecond remainder —
// integer arithmetic only, so the bytes are deterministic.
std::string fmt_ts(SimTime t) {
  std::int64_t ns = t.ns();
  const char* sign = "";
  if (ns < 0) {
    sign = "-";
    ns = -ns;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%s%" PRId64 ".%03" PRId64, sign, ns / 1000,
                ns % 1000);
  return buf;
}

const char* rx_cause_name(std::int64_t cause) {
  switch (static_cast<RxDropCause>(cause)) {
    case RxDropCause::kCollision:
      return "collision";
    case RxDropCause::kHalfDuplex:
      return "half_duplex";
    case RxDropCause::kImpairment:
      return "impairment";
    case RxDropCause::kPer:
      return "per";
    case RxDropCause::kSinr:
      return "sinr";
  }
  return "?";
}

void append_int_arg(std::string& out, bool& first, const char* key,
                    std::int64_t v) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_str_arg(std::string& out, bool& first, const char* key,
                    const std::string& v) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += key;
  out += "\":\"";
  out += json_escape(v);
  out += '"';
}

void append_args(std::string& out, const Record& r) {
  out += "\"args\":{";
  bool first = true;
  if (r.node >= 0) append_int_arg(out, first, "node", r.node);
  switch (r.type) {
    case EventType::kDesDispatch:
      append_int_arg(out, first, "id", r.a);
      break;
    case EventType::kFrameStart:
      append_int_arg(out, first, "frame", r.a);
      break;
    case EventType::kBlockStart:
      append_int_arg(out, first, "link", r.a);
      append_int_arg(out, first, "slot", r.b);
      append_int_arg(out, first, "len", r.c);
      append_int_arg(out, first, "frame", r.d);
      break;
    case EventType::kBlockSkipped:
      append_int_arg(out, first, "link", r.a);
      break;
    case EventType::kGrantSwap:
      append_int_arg(out, first, "generation", r.a);
      append_int_arg(out, first, "frame", r.b);
      break;
    case EventType::kTxStart:
      append_int_arg(out, first, "to", r.a);
      append_int_arg(out, first, "kind", r.b);
      append_int_arg(out, first, "airtime_ns", r.c);
      append_int_arg(out, first, "bytes", r.d);
      break;
    case EventType::kRxCorrupted:
      append_int_arg(out, first, "from", r.a);
      append_str_arg(out, first, "cause", rx_cause_name(r.b));
      break;
    case EventType::kSyncWave:
      append_int_arg(out, first, "wave", r.a);
      append_int_arg(out, first, "depth", r.b);
      break;
    case EventType::kSyncReRoot:
      append_int_arg(out, first, "depth", r.a);
      break;
    case EventType::kSyncMasterFail:
      break;
    case EventType::kFaultApplied:
      append_int_arg(out, first, "kind", r.a);
      break;
    case EventType::kRecoveryStart:
      append_int_arg(out, first, "faults", r.a);
      break;
    case EventType::kScheduleRepaired:
      append_int_arg(out, first, "repairs", r.a);
      append_int_arg(out, first, "shed", r.b);
      append_int_arg(out, first, "frame", r.c);
      break;
    case EventType::kPlanActivated:
      append_int_arg(out, first, "frame", r.a);
      break;
    case EventType::kSpan:
      break;  // excluded from JSON export (see export.h)
    case EventType::kIlpCuts:
      append_int_arg(out, first, "cuts", r.a);
      append_int_arg(out, first, "cliques", r.b);
      append_int_arg(out, first, "root_bound", r.c);
      break;
    case EventType::kIlpPortfolio:
      append_int_arg(out, first, "strategy", r.a);
      append_int_arg(out, first, "nodes", r.b);
      append_int_arg(out, first, "rounds", r.c);
      append_int_arg(out, first, "winner", r.d);
      break;
    case EventType::kIlpWarmStart:
      append_int_arg(out, first, "hits", r.a);
      append_int_arg(out, first, "attempts", r.b);
      break;
    case EventType::kIlpTreeFastPath:
      append_int_arg(out, first, "links", r.a);
      append_int_arg(out, first, "slots", r.b);
      append_int_arg(out, first, "components", r.c);
      break;
    case EventType::kAdmitDecision:
      append_int_arg(out, first, "flow", r.a);
      append_int_arg(out, first, "outcome", r.b);
      append_int_arg(out, first, "path", r.c);
      append_int_arg(out, first, "active", r.d);
      break;
    case EventType::kAdmitRelease:
      append_int_arg(out, first, "flow", r.a);
      append_int_arg(out, first, "active", r.b);
      append_int_arg(out, first, "pending", r.c);
      break;
    case EventType::kAdmitHotSwap:
      append_int_arg(out, first, "generation", r.a);
      append_int_arg(out, first, "frame", r.b);
      append_int_arg(out, first, "slots", r.c);
      break;
    case EventType::kAdmitCompaction:
      append_int_arg(out, first, "flows", r.a);
      append_int_arg(out, first, "slots", r.b);
      break;
    case EventType::kZonePartition:
      append_int_arg(out, first, "zones", r.a);
      append_int_arg(out, first, "nodes", r.b);
      append_int_arg(out, first, "border", r.c);
      append_int_arg(out, first, "interior", r.d);
      break;
    case EventType::kZoneSolve:
      append_int_arg(out, first, "zone", r.a);
      append_int_arg(out, first, "links", r.b);
      append_int_arg(out, first, "slots", r.c);
      append_int_arg(out, first, "proven", r.d);
      break;
    case EventType::kZoneBorder:
      append_int_arg(out, first, "link", r.a);
      append_int_arg(out, first, "start", r.b);
      append_int_arg(out, first, "len", r.c);
      append_int_arg(out, first, "relocated", r.d);
      break;
    case EventType::kIslandsFormed:
      append_int_arg(out, first, "islands", r.a);
      append_int_arg(out, first, "alive", r.b);
      append_int_arg(out, first, "severed", r.c);
      break;
    case EventType::kIslandMaster:
      append_int_arg(out, first, "island", r.a);
      append_int_arg(out, first, "size", r.b);
      break;
    case EventType::kIslandsHealed:
      append_int_arg(out, first, "merged", r.a);
      append_int_arg(out, first, "ever_severed", r.b);
      break;
    case EventType::kChaosTrial:
      append_int_arg(out, first, "trial", r.a);
      append_int_arg(out, first, "events", r.b);
      append_int_arg(out, first, "failed", r.c);
      break;
    case EventType::kChaosShrink:
      append_int_arg(out, first, "round", r.a);
      append_int_arg(out, first, "remaining", r.b);
      append_int_arg(out, first, "removed", r.c);
      break;
    case EventType::kRadioFadeDeep:
      append_int_arg(out, first, "tx", r.a);
      append_int_arg(out, first, "gain_cdb", r.b);
      break;
    case EventType::kRadioCapture:
      append_int_arg(out, first, "tx", r.a);
      append_int_arg(out, first, "sinr_cdb", r.b);
      append_int_arg(out, first, "interferers", r.c);
      break;
    case EventType::kRadioRateSwitch:
      append_int_arg(out, first, "rx", r.a);
      append_int_arg(out, first, "rate_index", r.b);
      append_int_arg(out, first, "rate_mbps", r.c);
      break;
  }
  out += '}';
}

}  // namespace

std::string to_chrome_json(const Tracer& tracer, const ExportOptions& opts) {
  const std::vector<Record> records = tracer.snapshot();
  std::string out;
  out.reserve(records.size() * 96 + 256);
  out += "{\"traceEvents\":[";
  bool first = true;
  const std::string pid = std::to_string(opts.pid);

  if (!opts.process_label.empty()) {
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += pid;
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    out += json_escape(opts.process_label);
    out += "\"}}";
    first = false;
  }

  // Name the per-node tracks (tid = node id + 1; tid 0 = global events).
  std::set<std::int64_t> tids;
  for (const Record& r : records) {
    if (r.type == EventType::kSpan) continue;
    tids.insert(r.node >= 0 ? r.node + std::int64_t{1} : 0);
  }
  for (std::int64_t tid : tids) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
    out += pid;
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"args\":{\"name\":\"";
    out += tid == 0 ? std::string("global") : "node " + std::to_string(tid - 1);
    out += "\"}}";
  }

  for (const Record& r : records) {
    if (r.type == EventType::kSpan) continue;  // wall-clock data: see summary
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += event_type_name(r.type);
    out += "\",\"cat\":\"";
    out += category_name(event_category(r.type));
    out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    out += fmt_ts(r.t0);
    out += ",\"pid\":";
    out += pid;
    out += ",\"tid\":";
    out += std::to_string(r.node >= 0 ? r.node + std::int64_t{1} : 0);
    out += ',';
    append_args(out, r);
    out += '}';
  }

  // Counts restricted to the exported (non-prof) categories: span counts
  // depend on which thread won a memoized solve, and the JSON must stay
  // byte-identical across --jobs values.
  out += "],\"otherData\":{\"recorded\":";
  out += std::to_string(tracer.recorded_in(kAll & ~kProf));
  out += ",\"dropped\":";
  out += std::to_string(tracer.dropped_in(kAll & ~kProf));
  out += "}}\n";
  return out;
}

std::string to_slot_csv(const Tracer& tracer) {
  std::string out = "frame,node,link,slot_start,slot_len,fire_ms\n";
  char buf[128];
  for (const Record& r : tracer.snapshot()) {
    if (r.type == EventType::kBlockStart) {
      std::snprintf(buf, sizeof buf,
                    "%" PRId64 ",%d,%" PRId64 ",%" PRId64 ",%" PRId64
                    ",%.6f\n",
                    r.d, r.node, r.a, r.b, r.c, r.t0.to_ms());
      out += buf;
    } else if (r.type == EventType::kBlockSkipped) {
      std::snprintf(buf, sizeof buf, "-1,%d,%" PRId64 ",-1,0,%.6f\n", r.node,
                    r.a, r.t0.to_ms());
      out += buf;
    }
  }
  return out;
}

std::string span_summary(const std::vector<const Tracer*>& tracers) {
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t wall_ns = 0;
    std::int64_t self_ns = 0;
    std::int64_t virt_ns = 0;
  };
  Agg agg[static_cast<std::size_t>(SpanName::kCount)];
  std::uint64_t dropped = 0;
  for (const Tracer* t : tracers) {
    if (t == nullptr) continue;
    dropped += t->dropped();
    for (const Record& r : t->snapshot()) {
      if (r.type != EventType::kSpan) continue;
      if (r.name >= static_cast<std::uint16_t>(SpanName::kCount)) continue;
      Agg& x = agg[r.name];
      ++x.count;
      x.wall_ns += r.a;
      x.self_ns += r.b;
      x.virt_ns += (r.t1 - r.t0).ns();
    }
  }

  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-22s %7s %10s %10s %10s %12s\n", "span",
                "count", "wall_ms", "self_ms", "mean_ms", "virt_ms");
  out += buf;
  bool any = false;
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount);
       ++i) {
    const Agg& x = agg[i];
    if (x.count == 0) continue;
    any = true;
    std::snprintf(buf, sizeof buf,
                  "%-22s %7" PRIu64 " %10.2f %10.2f %10.3f %12.3f\n",
                  span_name(static_cast<SpanName>(i)), x.count,
                  static_cast<double>(x.wall_ns) / 1e6,
                  static_cast<double>(x.self_ns) / 1e6,
                  static_cast<double>(x.wall_ns) / 1e6 /
                      static_cast<double>(x.count),
                  static_cast<double>(x.virt_ns) / 1e6);
    out += buf;
  }
  if (!any) out += "(no profiling spans recorded)\n";
  if (dropped > 0) {
    std::snprintf(buf, sizeof buf,
                  "note: ring overflow dropped %" PRIu64
                  " oldest records; span totals cover retained records only\n",
                  dropped);
    out += buf;
  }
  return out;
}

std::string span_summary(const Tracer& tracer) {
  return span_summary(std::vector<const Tracer*>{&tracer});
}

Expected<TraceTarget> parse_trace_target(const std::string& arg) {
  TraceTarget target{arg, 0};
  const auto colon = arg.rfind(':');
  if (colon != std::string::npos) {
    const std::string suffix = arg.substr(colon + 1);
    if (!suffix.empty() && suffix.find_first_of("/.") == std::string::npos) {
      std::string error;
      target.categories = parse_categories(suffix, &error);
      if (!error.empty()) return make_error(error);
      target.path = arg.substr(0, colon);
    }
  }
  if (target.path.empty()) return make_error("trace output path is empty");
  return target;
}

std::string labeled_path(const std::string& base, const std::string& label) {
  const auto dot = base.rfind('.');
  const auto slash = base.find_last_of('/');
  if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
    return base.substr(0, dot) + "." + label + base.substr(dot);
  }
  return base + "." + label;
}

}  // namespace wimesh::trace
