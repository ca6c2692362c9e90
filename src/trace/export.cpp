#include "wimesh/trace/export.h"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <set>

#include "wimesh/common/json.h"
#include "wimesh/common/log.h"
#include "wimesh/common/strings.h"

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

// Names of the integer arguments a, b, c, d of each event type, in that
// order; a null name ends the list.
std::array<const char*, 4> arg_names(EventType type) {
  switch (type) {
    case EventType::kDesDispatch: return {"id"};
    case EventType::kFrameStart: return {"frame"};
    case EventType::kBlockStart: return {"link", "slot", "len", "frame"};
    case EventType::kBlockSkipped: return {"link"};
    case EventType::kGrantSwap: return {"generation", "frame"};
    case EventType::kTxStart: return {"to", "kind", "airtime_ns", "bytes"};
    case EventType::kRxCorrupted: return {"from"};  // + "cause" as text
    case EventType::kSyncWave: return {"wave", "depth"};
    case EventType::kSyncReRoot: return {"depth"};
    case EventType::kSyncMasterFail: return {};
    case EventType::kFaultApplied: return {"kind"};
    case EventType::kRecoveryStart: return {"faults"};
    case EventType::kScheduleRepaired: return {"repairs", "shed", "frame"};
    case EventType::kPlanActivated: return {"frame"};
    case EventType::kSpan: return {};  // excluded from JSON export
    case EventType::kIlpCuts: return {"cuts", "cliques", "root_bound"};
    case EventType::kIlpPortfolio:
      return {"strategy", "nodes", "rounds", "winner"};
    case EventType::kIlpWarmStart: return {"hits", "attempts"};
    case EventType::kIlpTreeFastPath: return {"links", "slots", "components"};
    case EventType::kAdmitDecision:
      return {"flow", "outcome", "path", "active"};
    case EventType::kAdmitRelease: return {"flow", "active", "pending"};
    case EventType::kAdmitHotSwap: return {"generation", "frame", "slots"};
    case EventType::kAdmitCompaction: return {"flows", "slots"};
    case EventType::kZonePartition:
      return {"zones", "nodes", "border", "interior"};
    case EventType::kZoneSolve: return {"zone", "links", "slots", "proven"};
    case EventType::kZoneBorder: return {"link", "start", "len", "relocated"};
    case EventType::kIslandsFormed: return {"islands", "alive", "severed"};
    case EventType::kIslandMaster: return {"island", "size"};
    case EventType::kIslandsHealed: return {"merged", "ever_severed"};
    case EventType::kChaosTrial: return {"trial", "events", "failed"};
    case EventType::kChaosShrink: return {"round", "remaining", "removed"};
    case EventType::kRadioFadeDeep: return {"tx", "gain_cdb"};
    case EventType::kRadioCapture: return {"tx", "sinr_cdb", "interferers"};
    case EventType::kRadioRateSwitch:
      return {"rx", "rate_index", "rate_mbps"};
  }
  return {};
}

// Perfetto track of a record: tid = node id + 1; tid 0 = global events.
std::int64_t tid_of(const Record& r) {
  return r.node >= 0 ? r.node + std::int64_t{1} : 0;
}

// One "key": value member of the enclosing object.
template <typename T>
void put(JsonWriter& w, const char* key, const T& value) {
  w.key(key);
  w.value(value);
}

// A metadata event naming the process (tid 0) or one thread track.
void write_name(JsonWriter& w, const char* what, std::int64_t pid,
                std::int64_t tid, const std::string& name) {
  w.begin_object();
  put(w, "name", what);
  put(w, "ph", "M");
  put(w, "pid", pid);
  put(w, "tid", tid);
  w.key("args");
  w.begin_object();
  put(w, "name", name);
  w.end_object();
  w.end_object();
}

void write_event(JsonWriter& w, const Record& r, std::int64_t pid) {
  w.begin_object();
  put(w, "name", event_type_name(r.type));
  put(w, "cat", category_name(event_category(r.type)));
  put(w, "ph", "i");
  put(w, "s", "t");
  w.key("ts");
  w.number(fmt_ts(r.t0));
  put(w, "pid", pid);
  put(w, "tid", tid_of(r));
  w.key("args");
  w.begin_object();
  if (r.node >= 0) put(w, "node", r.node);
  const std::int64_t values[] = {r.a, r.b, r.c, r.d};
  const auto names = arg_names(r.type);
  for (std::size_t i = 0; i < names.size() && names[i] != nullptr; ++i) {
    put(w, names[i], values[i]);
  }
  if (r.type == EventType::kRxCorrupted) {
    put(w, "cause", rx_cause_name(r.b));
  }
  w.end_object();
  w.end_object();
}

// Companion slot-timeline CSV path for a trace JSON path.
std::string slots_path_for(const std::string& json_path) {
  const std::string suffix = ".json";
  if (json_path.size() > suffix.size() &&
      json_path.compare(json_path.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
    return json_path.substr(0, json_path.size() - suffix.size()) +
           ".slots.csv";
  }
  return json_path + ".slots.csv";
}

}  // namespace

std::string to_chrome_json(const Tracer& tracer, const ExportOptions& opts) {
  const std::vector<Record> records = tracer.snapshot();
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  if (!opts.process_label.empty()) {
    write_name(w, "process_name", opts.pid, 0, opts.process_label);
  }
  // Name the per-node tracks.
  std::set<std::int64_t> tids;
  for (const Record& r : records) {
    if (r.type != EventType::kSpan) tids.insert(tid_of(r));
  }
  for (std::int64_t tid : tids) {
    write_name(w, "thread_name", opts.pid, tid,
               tid == 0 ? std::string("global")
                        : "node " + std::to_string(tid - 1));
  }
  for (const Record& r : records) {
    // Wall-clock data: see span_summary.
    if (r.type != EventType::kSpan) write_event(w, r, opts.pid);
  }
  w.end_array();
  // Counts restricted to the exported (non-prof) categories: span counts
  // depend on which thread won a memoized solve, and the JSON must stay
  // byte-identical across --jobs values.
  w.key("otherData");
  w.begin_object();
  put(w, "recorded", tracer.recorded_in(kAll & ~kProf));
  put(w, "dropped", tracer.dropped_in(kAll & ~kProf));
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

Expected<bool> write_trace(const Tracer& tracer, const std::string& json_path,
                           const ExportOptions& opts, bool with_slot_csv) {
  if (auto ok = write_text_file(json_path, to_chrome_json(tracer, opts)); !ok) {
    return ok;
  }
  if (with_slot_csv) {
    if (auto ok = write_text_file(slots_path_for(json_path),
                                  to_slot_csv(tracer));
        !ok) {
      return ok;
    }
  }
  if (tracer.dropped() > 0) {
    log_warn("trace", str_cat("'", json_path, "': ring overflow dropped ",
                              tracer.dropped(), " oldest of ",
                              tracer.recorded(), " records (capacity ",
                              tracer.config().capacity,
                              "); narrow the category filter to keep more"));
  }
  return true;
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
