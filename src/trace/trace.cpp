#include "wimesh/trace/trace.h"

#include <chrono>

#include "wimesh/common/parse.h"
#include "wimesh/common/strings.h"

namespace wimesh::trace {

namespace {

struct CategoryEntry {
  Category cat;
  const char* name;
};

constexpr CategoryEntry kCategories[] = {
    {kDes, "des"},     {kTdma, "tdma"},     {kWifi, "wifi"},
    {kSync, "sync"},   {kFaults, "faults"}, {kProf, "prof"},
    {kIlp, "ilp"},     {kAdmit, "admit"},   {kZones, "zones"},
    {kChaos, "chaos"}, {kRadio, "radio"},
};

// Bit position of a (single-bit) category — index into the per-category
// counter arrays.
std::size_t category_index(Category cat) {
  std::size_t i = 0;
  std::uint32_t bits = cat;
  while (bits > 1) {
    bits >>= 1;
    ++i;
  }
  return i;
}

}  // namespace

std::uint32_t parse_categories(const std::string& csv, std::string* error) {
  if (error != nullptr) error->clear();
  std::uint32_t mask = 0;
  for (const std::string& raw : split(csv, ',')) {
    const std::string token = trim(raw);
    if (token.empty()) continue;
    if (token == "all" || token == "on") {
      mask |= kAll;
      continue;
    }
    if (token == "off" || token == "none") continue;
    bool found = false;
    for (const CategoryEntry& e : kCategories) {
      if (token == e.name) {
        mask |= e.cat;
        found = true;
        break;
      }
    }
    if (!found) {
      if (error != nullptr) {
        *error =
            str_cat(
                "unknown trace category '", token,
                "' (expected des|tdma|wifi|sync|faults|prof|ilp|admit|zones|"
                "chaos|radio|all|off)");
      }
      return 0;
    }
  }
  return mask;
}

const char* category_name(Category cat) {
  for (const CategoryEntry& e : kCategories) {
    if (e.cat == cat) return e.name;
  }
  return "?";
}

const char* event_type_name(EventType type) {
  switch (type) {
    case EventType::kDesDispatch:
      return "des.dispatch";
    case EventType::kFrameStart:
      return "tdma.frame_start";
    case EventType::kBlockStart:
      return "tdma.block_start";
    case EventType::kBlockSkipped:
      return "tdma.block_skipped";
    case EventType::kGrantSwap:
      return "tdma.grant_swap";
    case EventType::kTxStart:
      return "wifi.tx_start";
    case EventType::kRxCorrupted:
      return "wifi.rx_corrupted";
    case EventType::kSyncWave:
      return "sync.wave";
    case EventType::kSyncReRoot:
      return "sync.re_root";
    case EventType::kSyncMasterFail:
      return "sync.master_fail";
    case EventType::kFaultApplied:
      return "faults.applied";
    case EventType::kRecoveryStart:
      return "faults.recovery_start";
    case EventType::kScheduleRepaired:
      return "faults.schedule_repaired";
    case EventType::kPlanActivated:
      return "faults.plan_activated";
    case EventType::kSpan:
      return "span";
    case EventType::kIlpCuts:
      return "ilp.cuts";
    case EventType::kIlpPortfolio:
      return "ilp.portfolio";
    case EventType::kIlpWarmStart:
      return "ilp.warm_start";
    case EventType::kIlpTreeFastPath:
      return "ilp.tree_fast_path";
    case EventType::kAdmitDecision:
      return "admit.decision";
    case EventType::kAdmitRelease:
      return "admit.release";
    case EventType::kAdmitHotSwap:
      return "admit.hot_swap";
    case EventType::kAdmitCompaction:
      return "admit.compaction";
    case EventType::kZonePartition:
      return "zones.partition";
    case EventType::kZoneSolve:
      return "zones.solve";
    case EventType::kZoneBorder:
      return "zones.border";
    case EventType::kIslandsFormed:
      return "faults.islands_formed";
    case EventType::kIslandMaster:
      return "faults.island_master";
    case EventType::kIslandsHealed:
      return "faults.islands_healed";
    case EventType::kChaosTrial:
      return "chaos.trial";
    case EventType::kChaosShrink:
      return "chaos.shrink";
    case EventType::kRadioFadeDeep:
      return "radio.fade_deep";
    case EventType::kRadioCapture:
      return "radio.capture";
    case EventType::kRadioRateSwitch:
      return "radio.rate_switch";
  }
  return "?";
}

Category event_category(EventType type) {
  switch (type) {
    case EventType::kDesDispatch:
      return kDes;
    case EventType::kFrameStart:
    case EventType::kBlockStart:
    case EventType::kBlockSkipped:
    case EventType::kGrantSwap:
      return kTdma;
    case EventType::kTxStart:
    case EventType::kRxCorrupted:
      return kWifi;
    case EventType::kSyncWave:
    case EventType::kSyncReRoot:
    case EventType::kSyncMasterFail:
      return kSync;
    case EventType::kFaultApplied:
    case EventType::kRecoveryStart:
    case EventType::kScheduleRepaired:
    case EventType::kPlanActivated:
      return kFaults;
    case EventType::kSpan:
      return kProf;
    case EventType::kIlpCuts:
    case EventType::kIlpPortfolio:
    case EventType::kIlpWarmStart:
    case EventType::kIlpTreeFastPath:
      return kIlp;
    case EventType::kAdmitDecision:
    case EventType::kAdmitRelease:
    case EventType::kAdmitHotSwap:
    case EventType::kAdmitCompaction:
      return kAdmit;
    case EventType::kZonePartition:
    case EventType::kZoneSolve:
    case EventType::kZoneBorder:
      return kZones;
    case EventType::kIslandsFormed:
    case EventType::kIslandMaster:
    case EventType::kIslandsHealed:
      return kFaults;
    case EventType::kChaosTrial:
    case EventType::kChaosShrink:
      return kChaos;
    case EventType::kRadioFadeDeep:
    case EventType::kRadioCapture:
    case EventType::kRadioRateSwitch:
      return kRadio;
  }
  return kProf;
}

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kIlpSolve:
      return "ilp.solve";
    case SpanName::kScheduleIlp:
      return "sched.schedule_ilp";
    case SpanName::kMinSlotsSearch:
      return "sched.min_slots";
    case SpanName::kBellmanFord:
      return "sched.bellman_ford";
    case SpanName::kQosPlan:
      return "qos.plan";
    case SpanName::kFaultRecovery:
      return "faults.recovery";
    case SpanName::kSimRun:
      return "sim.run";
    case SpanName::kBatchRun:
      return "batch.run";
    case SpanName::kIlpCutGen:
      return "ilp.cut_gen";
    case SpanName::kTreeFastPath:
      return "sched.tree_fast_path";
    case SpanName::kAdmitDecide:
      return "admit.decide";
    case SpanName::kAdmitCompact:
      return "admit.compact";
    case SpanName::kZoneCompose:
      return "zones.compose";
    case SpanName::kCount:
      break;
  }
  return "?";
}

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(TraceConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  ring_.resize(config_.capacity);
  span_child_wall_.reserve(16);
}

void Tracer::record(Category cat, const Record& r) {
  if (!wants(cat)) return;
  if (recorded_ >= ring_.size()) {
    // Overwriting the oldest record; attribute the drop to its category.
    ++dropped_;
    ++dropped_by_cat_[category_index(event_category(ring_[head_].type))];
  }
  ring_[head_] = r;
  head_ = (head_ + 1) % ring_.size();
  ++recorded_;
  ++recorded_by_cat_[category_index(cat)];
}

std::uint64_t Tracer::recorded_in(std::uint32_t mask) const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    if ((mask & (1u << i)) != 0) n += recorded_by_cat_[i];
  }
  return n;
}

std::uint64_t Tracer::dropped_in(std::uint32_t mask) const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    if ((mask & (1u << i)) != 0) n += dropped_by_cat_[i];
  }
  return n;
}

void Tracer::span_push() { span_child_wall_.push_back(0); }

void Tracer::span_pop(SpanName name, SimTime vt0, SimTime vt1,
                      std::int64_t wall_total_ns) {
  std::int64_t child_ns = 0;
  if (!span_child_wall_.empty()) {
    child_ns = span_child_wall_.back();
    span_child_wall_.pop_back();
  }
  if (!span_child_wall_.empty()) {
    span_child_wall_.back() += wall_total_ns;
  }
  Record r;
  r.t0 = vt0;
  r.t1 = vt1;
  r.type = EventType::kSpan;
  r.name = static_cast<std::uint16_t>(name);
  r.a = wall_total_ns;
  r.b = wall_total_ns - child_ns;
  record(kProf, r);
}

std::vector<Record> Tracer::snapshot() const {
  std::vector<Record> out;
  if (recorded_ < ring_.size()) {
    out.assign(ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head_));
    return out;
  }
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

}  // namespace wimesh::trace
