#pragma once

// Runtime invariant auditor (opt-in, MeshConfig::audit).
//
// The paper's headline guarantee is that the software TDMA overlay is
// conflict-free: the ILP's relative transmission order plus Bellman–Ford
// over the conflict graph means no two interfering links transmit in the
// same minislot once emulated over 802.11. This module turns that claim —
// and two adjacent conservation properties — into checked invariants
// instead of statistics:
//
//  * Channel conflict monitor — every transmission start on WifiChannel is
//    checked against the deployed schedule's conflict graph; two
//    interfering links airborne at once is a detected violation.
//  * Packet conservation ledger — every MacPacket a traffic source emits
//    must be accounted for at simulation end as delivered, dropped (with a
//    typed reason) or still queued; leaks and duplicate deliveries are
//    violations.
//  * Slot-boundary monitor — overlay transmissions must lie inside the
//    nominal minislot window of a grant of their link (start tolerance of
//    one guard time for clock skew, no tolerance at the end, since the
//    release budget already reserves the guard); overruns are flagged with
//    node, link and magnitude.
//
// The auditor observes; it never perturbs the simulation (no RNG draws, no
// events), so enabling it cannot change results — an audited sweep stays
// bit-identical to an unaudited one, across any --jobs value. Violations
// carry structured context, are counted per category, and (configurably)
// fail fast through WIMESH_ASSERT.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "wimesh/des/simulator.h"
#include "wimesh/graph/graph.h"
#include "wimesh/wifi/channel.h"
#include "wimesh/wimax/mesh_frame.h"

namespace wimesh::audit {

// Why a packet left the system without reaching its destination. The
// taxonomy is exhaustive over the runner's drop paths; "busy at slot
// start" is deliberately absent — a skipped block leaves packets queued,
// and the overlay reports it through on_block_skipped instead.
enum class DropReason : std::uint8_t {
  kBestEffortOverflow,  // overlay best-effort queue was full (drop-tail)
  kMacQueueOverflow,    // MAC transmit queue was full
  kRetryExhausted,      // MAC retry limit reached (contention/corruption)
  kNoRoute,             // no next hop for the flow at this node
  kNoCapacity,          // TDMA link exists but holds no minislot grant
  kNodeDown,            // fault injection: a node on the path is crashed
  kScheduleRevoked,     // fault repair: packet's link vanished in a hot-swap
  kPartitioned,         // fault split the mesh; flow's route crosses the cut
};
inline constexpr std::size_t kDropReasonCount = 8;
const char* drop_reason_name(DropReason r);

enum class ViolationKind : std::uint8_t {
  kScheduleConflict,    // two conflicting links on the air simultaneously
  kSlotOverrun,         // overlay transmission outside its granted block
  kUnscheduledLink,     // overlay-mode frame on a link with no grant at all
  kPacketLeak,          // packets vanished: ledger residual > observed queues
  kDuplicateDelivery,   // one packet id delivered twice at its destination
  kDuplicateId,         // two source packets carried the same id
};
inline constexpr std::size_t kViolationKindCount = 6;
const char* violation_kind_name(ViolationKind k);

// One detected violation with enough context to debug it.
struct ViolationRecord {
  ViolationKind kind{};
  SimTime time{};                 // simulation time of detection
  NodeId node = kInvalidNode;     // offending transmitter (when known)
  LinkId link = kInvalidLink;     // offending link (when known)
  std::uint64_t packet_id = 0;    // offending packet (ledger violations)
  std::int64_t magnitude_ns = 0;  // overrun / overlap / leak size
  std::string detail;             // human-readable one-liner
};

// Detailed violation records kept per report; counters are always exact.
inline constexpr std::size_t kAuditMaxRecords = 32;

struct AuditConfig {
  // Abort through WIMESH_ASSERT on the first violation instead of
  // collecting a report (for CI and bisection).
  bool fail_fast = false;
};

// Per-run audit outcome, carried inside SimulationResult.
struct AuditReport {
  bool enabled = false;
  std::uint64_t violations[kViolationKindCount] = {};
  // Would-be violations inside a declared fault window (see waive_until):
  // counted here instead of violations[], never fail-fast. All zero unless
  // fault injection is active.
  std::uint64_t waived[kViolationKindCount] = {};
  std::uint64_t drops[kDropReasonCount] = {};
  std::uint64_t packets_created = 0;
  std::uint64_t packets_delivered = 0;  // distinct packets at destination
  std::uint64_t packets_dropped = 0;    // distinct, never delivered
  std::uint64_t packets_residual = 0;   // still queued/in flight at end
  std::uint64_t blocks_skipped = 0;     // overlay busy-at-slot-start skips
  std::vector<ViolationRecord> records;

  std::uint64_t count(ViolationKind k) const {
    return violations[static_cast<std::size_t>(k)];
  }
  std::uint64_t drop_count(DropReason r) const {
    return drops[static_cast<std::size_t>(r)];
  }
  std::uint64_t total_violations() const;
  std::uint64_t waived_total() const;
  // "audit: ok (...)" or "audit: N violation(s) (...)" one-liner.
  std::string summary() const;
};

// Observes one simulation run. Hook methods are called by the runner and
// by WifiChannel (through the ChannelProbe interface); all state is
// per-run and single-threaded, like the simulation itself.
class InvariantAuditor : public ChannelProbe {
 public:
  InvariantAuditor(const Simulator& sim, AuditConfig config);

  // Arms the conflict and slot monitors (TDMA overlay mode). `links`,
  // `conflicts` and `schedule` must outlive the auditor. Without this call
  // only the packet ledger runs (contention-MAC baselines). May be called
  // again after a schedule hot-swap: the monitors re-arm against the
  // repaired plan and in-flight transmission state is reset.
  void install_schedule(const LinkSet& links, const Graph& conflicts,
                        const MeshSchedule& schedule, const FrameConfig& frame,
                        SimTime guard);

  // Declares a fault/repair transition window: violations detected before
  // `until` are tallied as waived (reported separately, never fail-fast)
  // rather than counted as failures. Monotonic — an earlier `until` than
  // the current window is ignored. The fault runtime calls this around
  // each injected fault and each schedule swap; outside these windows the
  // audit contract is unchanged.
  void waive_until(SimTime until);

  // ChannelProbe: a frame just started transmitting; it leaves the air at
  // `end`.
  void on_transmission_start(const WifiFrame& frame, SimTime end) override;

  // Packet ledger hooks.
  void on_packet_created(const MacPacket& p);
  void on_packet_delivered(const MacPacket& p, NodeId at);
  void on_packet_dropped(const MacPacket& p, DropReason reason);

  // Overlay skipped a granted block because the MAC was still busy.
  void on_block_skipped(NodeId node, LinkId link);

  // Closes the ledger. `observed_residual` is the number of packets the
  // runner still found queued in overlays and MACs at simulation end; a
  // ledger remainder beyond it means packets leaked.
  void finalize(std::uint64_t observed_residual);

  const AuditReport& report() const { return report_; }

 private:
  struct ActiveTx {
    LinkId link = kInvalidLink;
    NodeId tx = kInvalidNode;
    SimTime end{};
  };

  void record(ViolationKind kind, NodeId node, LinkId link,
              std::uint64_t packet_id, std::int64_t magnitude_ns,
              std::string detail);
  void check_conflicts(LinkId link, NodeId tx, SimTime end);
  void check_slot_window(LinkId link, NodeId tx, SimTime start, SimTime end);

  const Simulator& sim_;
  AuditConfig config_;
  AuditReport report_;

  // Conflict/slot monitor state (armed by install_schedule).
  bool schedule_installed_ = false;
  const LinkSet* links_ = nullptr;
  const Graph* conflicts_ = nullptr;
  const MeshSchedule* schedule_ = nullptr;
  FrameConfig frame_{};
  SimTime guard_{};
  SimTime waive_until_{};  // violations before this instant are waived
  std::vector<ActiveTx> active_;

  // Ledger state: per-packet flags keyed by packet id.
  static constexpr std::uint8_t kDelivered = 1;
  static constexpr std::uint8_t kDropped = 2;
  std::unordered_map<std::uint64_t, std::uint8_t> ledger_;
};

}  // namespace wimesh::audit
