#include "wimesh/audit/auditor.h"

#include <algorithm>

#include "wimesh/common/strings.h"

namespace wimesh::audit {

const char* drop_reason_name(DropReason r) {
  switch (r) {
    case DropReason::kBestEffortOverflow:
      return "best_effort_overflow";
    case DropReason::kMacQueueOverflow:
      return "mac_queue_overflow";
    case DropReason::kRetryExhausted:
      return "retry_exhausted";
    case DropReason::kNoRoute:
      return "no_route";
    case DropReason::kNoCapacity:
      return "no_capacity";
    case DropReason::kNodeDown:
      return "node_down";
    case DropReason::kScheduleRevoked:
      return "schedule_revoked";
    case DropReason::kPartitioned:
      return "partitioned";
  }
  return "unknown";
}

const char* violation_kind_name(ViolationKind k) {
  switch (k) {
    case ViolationKind::kScheduleConflict:
      return "schedule_conflict";
    case ViolationKind::kSlotOverrun:
      return "slot_overrun";
    case ViolationKind::kUnscheduledLink:
      return "unscheduled_link";
    case ViolationKind::kPacketLeak:
      return "packet_leak";
    case ViolationKind::kDuplicateDelivery:
      return "duplicate_delivery";
    case ViolationKind::kDuplicateId:
      return "duplicate_id";
  }
  return "unknown";
}

std::uint64_t AuditReport::total_violations() const {
  std::uint64_t total = 0;
  for (std::uint64_t v : violations) total += v;
  return total;
}

std::uint64_t AuditReport::waived_total() const {
  std::uint64_t total = 0;
  for (std::uint64_t v : waived) total += v;
  return total;
}

std::string AuditReport::summary() const {
  if (!enabled) return "audit: disabled";
  std::string out = total_violations() == 0
                        ? "audit: ok"
                        : str_cat("audit: ", total_violations(),
                                  " violation(s)");
  for (std::size_t k = 0; k < kViolationKindCount; ++k) {
    if (violations[k] == 0) continue;
    out += str_cat(" ", violation_kind_name(static_cast<ViolationKind>(k)),
                   "=", violations[k]);
  }
  if (waived_total() > 0) out += str_cat(" waived=", waived_total());
  out += str_cat(" (packets: created=", packets_created,
                 " delivered=", packets_delivered,
                 " dropped=", packets_dropped,
                 " residual=", packets_residual, ")");
  return out;
}

InvariantAuditor::InvariantAuditor(const Simulator& sim, AuditConfig config)
    : sim_(sim), config_(config) {
  report_.enabled = true;
}

void InvariantAuditor::install_schedule(const LinkSet& links,
                                        const Graph& conflicts,
                                        const MeshSchedule& schedule,
                                        const FrameConfig& frame,
                                        SimTime guard) {
  WIMESH_ASSERT(conflicts.node_count() == links.count());
  WIMESH_ASSERT(schedule.link_count() == links.count());
  links_ = &links;
  conflicts_ = &conflicts;
  schedule_ = &schedule;
  frame_ = frame;
  guard_ = guard;
  schedule_installed_ = true;
  // Re-arming after a hot-swap: LinkIds are plan-relative, so in-flight
  // records from the old plan must not be checked against the new one.
  active_.clear();
}

void InvariantAuditor::waive_until(SimTime until) {
  if (until > waive_until_) waive_until_ = until;
}

void InvariantAuditor::record(ViolationKind kind, NodeId node, LinkId link,
                              std::uint64_t packet_id,
                              std::int64_t magnitude_ns, std::string detail) {
  if (sim_.now() < waive_until_) {
    // Inside a declared fault window: expected fallout, tallied apart.
    ++report_.waived[static_cast<std::size_t>(kind)];
    return;
  }
  ++report_.violations[static_cast<std::size_t>(kind)];
  if (config_.fail_fast) {
    WIMESH_ASSERT_MSG(false, str_cat("audit violation [",
                                     violation_kind_name(kind), "] ", detail)
                                 .c_str());
  }
  if (report_.records.size() < kAuditMaxRecords) {
    ViolationRecord r;
    r.kind = kind;
    r.time = sim_.now();
    r.node = node;
    r.link = link;
    r.packet_id = packet_id;
    r.magnitude_ns = magnitude_ns;
    r.detail = std::move(detail);
    report_.records.push_back(std::move(r));
  }
}

void InvariantAuditor::on_transmission_start(const WifiFrame& frame,
                                             SimTime end) {
  if (!schedule_installed_) return;
  // Attribute the frame to a scheduled link. A data frame a->b belongs to
  // link (a->b); the link-layer ACK it elicits travels b->a inside the same
  // minislot block, so it is charged to (a->b) as well. RTS/CTS never occur
  // in overlay mode (the overlay runs the MAC with rts_cts off).
  LinkId link = kInvalidLink;
  if (frame.type == WifiFrame::Type::kData) {
    link = links_->find(Link{frame.from, frame.to});
  } else if (frame.type == WifiFrame::Type::kAck) {
    link = links_->find(Link{frame.to, frame.from});
  } else {
    return;
  }
  if (link == kInvalidLink) {
    record(ViolationKind::kUnscheduledLink, frame.from, kInvalidLink,
           frame.packet.id, 0,
           str_cat("frame ", frame.from, "->", frame.to,
                   " on a link outside the scheduled link set"));
    return;
  }
  check_conflicts(link, frame.from, end);
  check_slot_window(link, frame.from, sim_.now(), end);
  active_.push_back(ActiveTx{link, frame.from, end});
}

void InvariantAuditor::check_conflicts(LinkId link, NodeId tx, SimTime end) {
  const SimTime now = sim_.now();
  // Drop finished transmissions first: a frame ending exactly now does not
  // overlap one starting now (zero propagation delay; the channel removes
  // its own record in the same order).
  active_.erase(std::remove_if(active_.begin(), active_.end(),
                               [now](const ActiveTx& t) {
                                 return t.end <= now;
                               }),
                active_.end());
  for (const ActiveTx& other : active_) {
    if (other.link != link && !conflicts_->has_edge(link, other.link)) {
      continue;
    }
    const SimTime overlap = std::min(end, other.end) - now;
    record(ViolationKind::kScheduleConflict, tx, link, 0, overlap.ns(),
           str_cat("links ", link, " and ", other.link,
                   " (nodes ", tx, ", ", other.tx,
                   ") airborne simultaneously for ", overlap.to_string()));
  }
}

void InvariantAuditor::check_slot_window(LinkId link, NodeId tx, SimTime start,
                                         SimTime end) {
  // The transmission must fit some grant of its link. Windows are nominal
  // (global-clock) minislot ranges; the start edge gets one guard time of
  // tolerance because a fast transmitter clock legitimately fires early
  // (the schedule's conflict-freedom absorbs up to guard/2 of skew per
  // node), while the end edge gets none — the overlay's release budget is
  // the block minus the guard, so exceeding the nominal block end means
  // the guard was undersized for the actual clock error.
  const std::vector<SlotRange> grants = schedule_->all_grants(link);
  if (grants.empty()) {
    record(ViolationKind::kUnscheduledLink, tx, link, 0, 0,
           str_cat("transmission on link ", link, " which holds no grant"));
    return;
  }
  const std::int64_t fi = frame_.frame_index(start);
  std::int64_t best_violation_ns = -1;
  for (const SlotRange& g : grants) {
    for (std::int64_t f = fi - 1; f <= fi + 1; ++f) {
      if (f < 0) continue;
      const SimTime block_start =
          frame_.frame_start(f) + frame_.data_slot_offset(g.start);
      const SimTime block_end =
          block_start + frame_.slot_duration() * g.length;
      const std::int64_t early = (block_start - guard_ - start).ns();
      const std::int64_t late = (end - block_end).ns();
      const std::int64_t violation = std::max<std::int64_t>(
          0, std::max(early, late));
      if (violation == 0) return;  // fits this window
      if (best_violation_ns < 0 || violation < best_violation_ns) {
        best_violation_ns = violation;
      }
    }
  }
  record(ViolationKind::kSlotOverrun, tx, link, 0, best_violation_ns,
         str_cat("node ", tx, " link ", link, " transmission [",
                 start.to_string(), ", ", end.to_string(),
                 "] overruns its granted block by ",
                 SimTime::nanoseconds(best_violation_ns).to_string()));
}

void InvariantAuditor::on_packet_created(const MacPacket& p) {
  ++report_.packets_created;
  const auto [it, inserted] = ledger_.try_emplace(p.id, std::uint8_t{0});
  if (!inserted) {
    record(ViolationKind::kDuplicateId, p.from, kInvalidLink, p.id, 0,
           str_cat("packet id ", p.id, " (flow ", p.flow_id,
                   ") created twice"));
  }
}

void InvariantAuditor::on_packet_delivered(const MacPacket& p, NodeId at) {
  auto& flags = ledger_[p.id];
  if (flags & kDelivered) {
    record(ViolationKind::kDuplicateDelivery, at, kInvalidLink, p.id, 0,
           str_cat("packet id ", p.id, " (flow ", p.flow_id,
                   ") delivered twice at node ", at));
  }
  flags |= kDelivered;
}

void InvariantAuditor::on_packet_dropped(const MacPacket& p,
                                         DropReason reason) {
  ++report_.drops[static_cast<std::size_t>(reason)];
  // A MAC-level drop can race ahead of a copy already forwarded (data
  // decoded, ACK lost, retries exhausted): the flags record both facts and
  // finalize() counts the packet once, with delivery taking precedence.
  ledger_[p.id] |= kDropped;
}

void InvariantAuditor::on_block_skipped(NodeId, LinkId) {
  ++report_.blocks_skipped;
}

void InvariantAuditor::finalize(std::uint64_t observed_residual) {
  std::uint64_t delivered = 0, dropped = 0, remaining = 0;
  for (const auto& [id, flags] : ledger_) {
    if (flags & kDelivered) {
      ++delivered;
    } else if (flags & kDropped) {
      ++dropped;
    } else {
      ++remaining;
    }
  }
  report_.packets_delivered = delivered;
  report_.packets_dropped = dropped;
  report_.packets_residual = remaining;
  // Conservation: every unaccounted packet must still be sitting in an
  // overlay queue, a MAC queue, or a MAC's in-service slot. (The observed
  // count can exceed the ledger's remainder — an in-doubt exchange whose
  // data arrived but whose ACK is pending is momentarily counted at both
  // ends — so only the deficit is a leak.)
  if (remaining > observed_residual) {
    const std::uint64_t leaked = remaining - observed_residual;
    record(ViolationKind::kPacketLeak, kInvalidNode, kInvalidLink, 0,
           static_cast<std::int64_t>(leaked),
           str_cat(leaked, " packet(s) neither delivered, dropped, nor "
                           "queued at simulation end (",
                   remaining, " unaccounted vs ", observed_residual,
                   " observed in queues)"));
  }
}

}  // namespace wimesh::audit
