#pragma once

// Trace exporters.
//
// to_chrome_json renders the Chrome trace-event format understood by
// Perfetto and chrome://tracing. It serializes ONLY virtual-time event
// records: profiling spans (category "prof") are excluded by design,
// because with a shared ScheduleCache *which* run performs a solve — and
// thus records its span — depends on thread scheduling. Skipping them
// keeps the exported bytes bit-identical for any --jobs value. Wall-clock
// data is reported instead through span_summary(), a human-facing table.

#include <cstdint>
#include <string>
#include <vector>

#include "wimesh/common/expected.h"
#include "wimesh/trace/trace.h"

namespace wimesh::trace {

struct ExportOptions {
  // Perfetto process id / label for this trace (e.g. the run index and
  // the sweep label). Events are split into per-node tracks (tid).
  std::int64_t pid = 0;
  std::string process_label;
};

// Chrome trace-event JSON ({"traceEvents":[...]}); oldest record first.
// otherData carries recorded/dropped counts so ring overflow is visible
// in the file itself. The counts cover the exported (non-prof)
// categories only — like the events themselves, they must not depend on
// which thread performed a cached solve.
std::string to_chrome_json(const Tracer& tracer,
                           const ExportOptions& opts = {});

// Per-frame slot timeline: one CSV row per TDMA grant block release
// (frame, node, link, slot_start, slot_len, fire_ms) plus skipped blocks
// with slot_len 0.
std::string to_slot_csv(const Tracer& tracer);

// Aligned table of wall-clock span totals/self times aggregated by span
// name across the given tracers (rows in fixed SpanName order).
std::string span_summary(const std::vector<const Tracer*>& tracers);
std::string span_summary(const Tracer& tracer);

// A parsed "--trace OUT[:cats]" value.
struct TraceTarget {
  std::string path;
  // Category mask of the ":cats" suffix; 0 when there is no suffix (or it
  // names no category), so each caller picks its own default.
  std::uint32_t categories = 0;
};

// Splits "OUT[:cats]". The text after the last ':' is a category list
// only when it looks like one (non-empty, no '/' or '.'), so paths with
// colons stay intact. An unknown category or an empty path is an error.
Expected<TraceTarget> parse_trace_target(const std::string& arg);

// "base.json" + label -> "base.<label>.json": the label goes before the
// extension of the last path component (appended when it has none).
std::string labeled_path(const std::string& base, const std::string& label);

}  // namespace wimesh::trace
