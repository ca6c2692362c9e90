#pragma once

// wimesh::trace — deterministic event tracing + wall-clock profiling.
//
// A Tracer owns a preallocated ring of fixed-size binary records. Every
// record carries a *virtual* (DES) timestamp, so two runs of the same
// scenario produce bit-identical event streams regardless of wall-clock
// speed or which worker thread executed them. Profiling spans additionally
// carry monotonic wall-clock totals, which are reported only in the
// human-facing span summary (never in the deterministic JSON export).
//
// Instrumentation sites call the free helpers below; they are compiled in
// unconditionally but cost a single thread-local load plus one predicted
// branch when no Tracer is bound to the calling thread. Binding is by RAII
// Scope — the batch runner binds a per-run Tracer around each run's body,
// and since a run executes entirely on one worker thread its trace is
// independent of thread placement.
//
// Ring overflow overwrites the oldest records and counts them (dropped());
// exporters report the count so truncation is never silent.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "wimesh/common/time.h"

namespace wimesh::trace {

// Category bitmask — filters which instrumentation sites record.
enum Category : std::uint32_t {
  kDes = 1u << 0,     // DES event dispatch
  kTdma = 1u << 1,    // frame boundaries, grant blocks, hot-swaps
  kWifi = 1u << 2,    // channel transmissions and corruption causes
  kSync = 1u << 3,    // beacon waves, re-roots, master failures
  kFaults = 1u << 4,  // fault injection / recovery phases
  kProf = 1u << 5,    // wall-clock profiling spans
  kIlp = 1u << 6,     // ILP solver internals (cuts, portfolio, warm starts)
  kAdmit = 1u << 7,   // online admission control (decisions, hot-swaps)
  kZones = 1u << 8,   // zone partitioning / per-zone solves / border pass
  kChaos = 1u << 9,   // chaos fuzzing trials / oracle checks / shrinking
  kRadio = 1u << 10,  // physical layer: deep fades, capture, rate switches
  kAll = (1u << 11) - 1,
};

// Parses a comma-separated category list ("tdma,sync"). "all" and "on"
// select everything, "off"/"none" select nothing. Unknown names return 0
// and set *error (when given) to a message naming the bad token.
std::uint32_t parse_categories(const std::string& csv,
                               std::string* error = nullptr);
const char* category_name(Category cat);

enum class EventType : std::uint16_t {
  kDesDispatch = 0,   // a=event id
  kFrameStart,        // node, a=frame index
  kBlockStart,        // node, a=link, b=slot start, c=slot length, d=frame
  kBlockSkipped,      // node, a=link (channel busy at slot start)
  kGrantSwap,         // node, a=new plan generation, b=frame index
  kTxStart,           // node=tx, a=to, b=frame kind, c=airtime ns, d=bytes
  kRxCorrupted,       // node=rx, a=from, b=cause (RxDropCause)
  kSyncWave,          // node=master, a=wave number, b=max depth
  kSyncReRoot,        // node=new master, a=max depth
  kSyncMasterFail,    // node=old master
  kFaultApplied,      // node, a=FaultKind
  kRecoveryStart,     // a=faults handled so far
  kScheduleRepaired,  // a=repairs, b=flows shed, c=activation frame
  kPlanActivated,     // a=activation frame
  kSpan,              // profiling span: name field, a=wall total ns,
                      // b=wall self ns, [t0,t1] = virtual range
  // ILP solver internals (appended after kSpan to keep earlier numeric
  // values stable for existing exports).
  kIlpCuts,           // a=cut rows added, b=cliques used, c=root lower bound
  kIlpPortfolio,      // a=strategy index, b=nodes explored, c=rounds,
                      // d=1 when this strategy produced the returned result
  kIlpWarmStart,      // a=warm-start hits, b=attempts (per solve)
  kIlpTreeFastPath,   // a=active links, b=slots used, c=forest components
  // Online admission control (appended to keep earlier values stable).
  kAdmitDecision,     // a=flow id, b=outcome (0 admit/1 degrade/2 reject),
                      // c=decision path (admit::DecisionPath), d=active flows
  kAdmitRelease,      // a=flow id, b=active flows, c=departures pending
  kAdmitHotSwap,      // a=plan generation, b=activation frame, c=used slots
  kAdmitCompaction,   // a=surviving flows, b=used slots after compaction
  // Zone-partitioned scheduling (appended to keep earlier values stable).
  kZonePartition,     // a=zones, b=nodes, c=border links, d=interior links
  kZoneSolve,         // a=zone index, b=zone links, c=zone slots,
                      // d=1 when the zone solve was proven minimal
  kZoneBorder,        // a=border link id, b=granted slot start,
                      // c=slot length, d=1 when relocated from the
                      // zone-local request
  // Partition-aware recovery (appended to keep earlier values stable).
  kIslandsFormed,     // a=island count, b=surviving nodes, c=severed flows
  kIslandMaster,      // node=island master, a=island index, b=island size
  kIslandsHealed,     // a=islands merged, b=flows re-admitted
  // Chaos fuzzing engine (appended to keep earlier values stable).
  kChaosTrial,        // a=trial index, b=events in script, c=0 ok / 1 failed
  kChaosShrink,       // a=shrink round, b=events remaining, c=events removed
  // Physical radio layer (appended to keep earlier values stable).
  kRadioFadeDeep,     // node=rx, a=tx, b=fading gain in centi-dB (<= -1000)
  kRadioCapture,      // node=rx, a=tx, b=SINR centi-dB, c=interferers
  kRadioRateSwitch,   // node=tx, a=rx, b=new best rate index, c=rate Mbps
};
const char* event_type_name(EventType type);
Category event_category(EventType type);

// Cause codes for kRxCorrupted (stable — documented in EXPERIMENTS.md).
enum class RxDropCause : std::int64_t {
  kCollision = 1,   // another transmission overlapped the reception
  kHalfDuplex = 2,  // the receiving radio was itself transmitting
  kImpairment = 3,  // injected link fault corrupted the frame
  kPer = 4,         // Bernoulli packet-error-rate drop
  kSinr = 5,        // SINR below the capture threshold (physical radio)
};

enum class SpanName : std::uint16_t {
  kIlpSolve = 0,    // branch-and-bound over one IlpModel
  kScheduleIlp,     // sched::schedule_ilp (heuristics + root LP + B&B)
  kMinSlotsSearch,  // sched::min_slots_search
  kBellmanFord,     // sched::order_to_schedule slot assignment
  kQosPlan,         // QosPlanner::plan end to end
  kFaultRecovery,   // fault detection -> repaired plan activation
  kSimRun,          // DES main loop for one run
  kBatchRun,        // one batch run body (plan + simulate)
  kIlpCutGen,       // clique-cut generation over the conflict graph
  kTreeFastPath,    // forest detection + Bellman-Ford tree scheduling
  kAdmitDecide,     // AdmissionEngine::offer end to end
  kAdmitCompact,    // survivor re-plan + hot-swap staging
  kZoneCompose,     // border reconciliation + composition (phase 2)
  kCount,
};
const char* span_name(SpanName name);

// One fixed-size binary record (56 bytes; ring stays cache-friendly).
struct Record {
  SimTime t0{};  // virtual timestamp; spans: virtual begin
  SimTime t1{};  // spans: virtual end; instant events: == t0
  EventType type = EventType::kDesDispatch;
  std::uint16_t name = 0;  // SpanName for kSpan records
  std::int32_t node = -1;  // acting node, -1 = global
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  std::int64_t d = 0;
};
static_assert(sizeof(Record) <= 64, "Record must stay ring-friendly");

struct TraceConfig {
  std::uint32_t categories = kAll;
  std::size_t capacity = std::size_t{1} << 16;  // records (64 B each)
};

class Tracer {
 public:
  explicit Tracer(TraceConfig config = {});

  bool wants(Category cat) const { return (config_.categories & cat) != 0; }

  // Appends when the category is enabled; wraps over the oldest record
  // when the ring is full (counted in dropped()).
  void record(Category cat, const Record& r);

  // Span bookkeeping: push on span entry, pop on exit. Pop subtracts the
  // accumulated child wall time to produce the span's self time and emits
  // a kSpan record.
  void span_push();
  void span_pop(SpanName name, SimTime vt0, SimTime vt1,
                std::int64_t wall_total_ns);

  // Retained records, oldest first.
  std::vector<Record> snapshot() const;
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }
  // Same counters restricted to a category mask. The deterministic JSON
  // export reports recorded_in(kAll & ~kProf): wall-clock span counts are
  // thread-timing dependent under a shared schedule cache, so including
  // them would break byte-identity across --jobs values.
  std::uint64_t recorded_in(std::uint32_t mask) const;
  std::uint64_t dropped_in(std::uint32_t mask) const;
  const TraceConfig& config() const { return config_; }

 private:
  static constexpr std::size_t kCategoryCount = 11;

  TraceConfig config_;
  std::vector<Record> ring_;
  std::size_t head_ = 0;        // next write slot
  std::uint64_t recorded_ = 0;  // records accepted (incl. later overwritten)
  std::uint64_t dropped_ = 0;   // records overwritten by ring wrap
  std::uint64_t recorded_by_cat_[kCategoryCount] = {};
  std::uint64_t dropped_by_cat_[kCategoryCount] = {};
  std::vector<std::int64_t> span_child_wall_;  // per-depth child accumulator
};

namespace detail {
inline thread_local Tracer* tls_tracer = nullptr;
}

// The Tracer bound to this thread, or nullptr when tracing is off.
inline Tracer* current() { return detail::tls_tracer; }

// Binds a Tracer to the calling thread for the Scope's lifetime. Passing
// nullptr is allowed and leaves tracing off (convenient at call sites).
class Scope {
 public:
  explicit Scope(Tracer* tracer) : prev_(detail::tls_tracer) {
    detail::tls_tracer = tracer;
  }
  ~Scope() { detail::tls_tracer = prev_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* prev_;
};

// Instrumentation-site helper. Disabled cost: one thread-local load and a
// predicted-not-taken branch (argument expressions stay trivial at sites).
inline void event(EventType type, SimTime t, std::int32_t node = -1,
                  std::int64_t a = 0, std::int64_t b = 0, std::int64_t c = 0,
                  std::int64_t d = 0) {
  Tracer* tracer = current();
  if (tracer == nullptr) [[likely]] {
    return;
  }
  Record r;
  r.t0 = t;
  r.t1 = t;
  r.type = type;
  r.node = node;
  r.a = a;
  r.b = b;
  r.c = c;
  r.d = d;
  tracer->record(event_category(type), r);
}

// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
std::int64_t monotonic_ns();

// RAII profiling span (category kProf). The virtual range defaults to
// [vt, vt]; widen it with set_virtual_range() before destruction when the
// span covers simulated time (e.g. fault -> repaired-plan activation).
class Span {
 public:
  explicit Span(SpanName name, SimTime vt = SimTime::zero())
      : tracer_(current()), name_(name), vt0_(vt), vt1_(vt) {
    if (tracer_ == nullptr) [[likely]] {
      return;
    }
    if (!tracer_->wants(kProf)) {
      tracer_ = nullptr;
      return;
    }
    tracer_->span_push();
    wall_begin_ns_ = monotonic_ns();
  }
  ~Span() {
    if (tracer_ == nullptr) [[likely]] {
      return;
    }
    tracer_->span_pop(name_, vt0_, vt1_, monotonic_ns() - wall_begin_ns_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_virtual_range(SimTime begin, SimTime end) {
    vt0_ = begin;
    vt1_ = end;
  }

 private:
  Tracer* tracer_;
  SpanName name_;
  SimTime vt0_;
  SimTime vt1_;
  std::int64_t wall_begin_ns_ = 0;
};

}  // namespace wimesh::trace
