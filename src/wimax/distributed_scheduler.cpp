#include "wimesh/wimax/distributed_scheduler.h"

#include <algorithm>

#include "wimesh/common/rng.h"

namespace wimesh {

int DistributedScheduleResult::used_slots() const {
  int used = 0;
  for (const SlotRange& g : grants) used = std::max(used, g.end());
  return used;
}

DistributedScheduleResult run_distributed_scheduling(
    const LinkSet& links, const std::vector<int>& demand,
    const Graph& conflicts, int frame_slots,
    const DistributedSchedulerConfig& config) {
  WIMESH_ASSERT(demand.size() == static_cast<std::size_t>(links.count()));
  WIMESH_ASSERT(conflicts.node_count() == links.count());

  DistributedScheduleResult out;
  out.grants.assign(static_cast<std::size_t>(links.count()), SlotRange{});
  out.unmet = demand;

  // Per-link handshake-hardening state. `given_up` mirrors out.abandoned as
  // a flag array; `wait_until` is the first round the link may request again
  // after a backoff.
  std::vector<int> failures(static_cast<std::size_t>(links.count()), 0);
  std::vector<int> wait_until(static_cast<std::size_t>(links.count()), 0);
  std::vector<char> given_up(static_cast<std::size_t>(links.count()), 0);
  Rng loss_rng(kControlLossSeed);
  // Under control loss a fully rejected round is indistinguishable from a
  // round of lost messages, so the no-progress stall exit is disabled and
  // termination relies on the attempt cap / round cap instead.
  const bool persistent_retry = config.control_loss_rate > 0.0;

  const auto record_failure = [&](LinkId l) {
    const auto i = static_cast<std::size_t>(l);
    ++failures[i];
    if (config.max_link_attempts > 0 &&
        failures[i] >= config.max_link_attempts) {
      given_up[i] = 1;
      out.abandoned.push_back(l);  // link order: l scans ascending per round
      return;
    }
    if (config.backoff_base_rounds > 0) {
      const int shift = std::min(failures[i] - 1, 20);
      const int wait = std::min(config.backoff_base_rounds << shift,
                                kHandshakeBackoffCapRounds);
      wait_until[i] = out.rounds + 1 + wait;
    }
  };

  // True while some link still wants slots but is merely backing off (not
  // abandoned) — an empty or fruitless round is then transient, not a stall.
  const auto anyone_waiting = [&] {
    for (LinkId l = 0; l < links.count(); ++l) {
      const auto i = static_cast<std::size_t>(l);
      if (out.unmet[i] > 0 && !given_up[i] && wait_until[i] > out.rounds) {
        return true;
      }
    }
    return false;
  };

  // A link's local view: confirmed grants of its conflict neighbors (both
  // of whose endpoints overheard the handshake) plus its own.
  const auto local_view = [&](LinkId l) {
    std::vector<SlotRange> busy;
    if (out.grants[static_cast<std::size_t>(l)].length > 0) {
      busy.push_back(out.grants[static_cast<std::size_t>(l)]);
    }
    for (EdgeId e : conflicts.incident(l)) {
      const LinkId m = conflicts.other_end(e, l);
      const SlotRange& g = out.grants[static_cast<std::size_t>(m)];
      if (g.length > 0) busy.push_back(g);
    }
    return busy;
  };

  for (out.rounds = 1; out.rounds <= config.max_rounds; ++out.rounds) {
    // Requests this round are built against the views at round START; the
    // winners' confirms are then serialized in election order, so a later
    // confirm that clashes with an earlier same-round grant is rejected
    // (exactly the stale-view race of the real protocol).
    struct Tentative {
      LinkId link;
      SlotRange range;
      std::uint32_t hash;
    };
    std::vector<Tentative> tentative;
    for (LinkId l = 0; l < links.count(); ++l) {
      const auto i = static_cast<std::size_t>(l);
      const int want = out.unmet[i];
      if (want <= 0) continue;
      if (given_up[i]) continue;               // gave up; demand stays unmet
      if (wait_until[i] > out.rounds) continue;  // backing off
      std::vector<SlotRange> view = local_view(l);
      const auto start = first_fit(view, want, 0, frame_slots);
      if (!start.has_value()) continue;  // no gap in this view; wait
      tentative.push_back(Tentative{
          l, SlotRange{*start, want},
          mesh_election_hash(static_cast<std::uint32_t>(l),
                             static_cast<std::uint32_t>(out.rounds),
                             config.election_seed)});
    }
    if (tentative.empty()) {
      if (!anyone_waiting()) break;  // stall: nothing can even request
      continue;  // everyone eligible is just backing off; idle round
    }
    std::sort(tentative.begin(), tentative.end(),
              [](const Tentative& a, const Tentative& b) {
                if (a.hash != b.hash) return a.hash > b.hash;
                return a.link < b.link;
              });

    bool progress = false;
    for (const Tentative& t : tentative) {
      ++out.handshakes;
      if (config.control_loss_rate > 0.0 &&
          loss_rng.chance(config.control_loss_rate)) {
        // Some leg of the three-way exchange was lost; nothing is installed
        // and the requester treats it like a rejection (retry after backoff).
        ++out.messages_lost;
        record_failure(t.link);
        continue;
      }
      // Confirm against the LIVE state (the granter refreshed its view
      // from everything it overheard this round).
      bool clash = false;
      for (EdgeId e : conflicts.incident(t.link)) {
        const LinkId m = conflicts.other_end(e, t.link);
        if (out.grants[static_cast<std::size_t>(m)].overlaps(t.range)) {
          clash = true;
          break;
        }
      }
      if (clash) {
        ++out.rejections;
        record_failure(t.link);
        continue;  // requester retries next round with a fresher view
      }
      out.grants[static_cast<std::size_t>(t.link)] = t.range;
      out.unmet[static_cast<std::size_t>(t.link)] = 0;
      progress = true;
    }
    const bool all_served =
        std::all_of(out.unmet.begin(), out.unmet.end(),
                    [](int u) { return u <= 0; });
    if (all_served) {
      out.converged = true;
      return out;
    }
    if (!progress && !persistent_retry && !anyone_waiting()) {
      break;  // every request clashed and nothing changed
    }
  }
  std::sort(out.abandoned.begin(), out.abandoned.end());
  out.converged = std::all_of(out.unmet.begin(), out.unmet.end(),
                              [](int u) { return u <= 0; });
  return out;
}

bool distributed_schedule_conflict_free(
    const DistributedScheduleResult& result, const Graph& conflicts) {
  for (EdgeId e = 0; e < conflicts.edge_count(); ++e) {
    const SlotRange& a =
        result.grants[static_cast<std::size_t>(conflicts.edge(e).u)];
    const SlotRange& b =
        result.grants[static_cast<std::size_t>(conflicts.edge(e).v)];
    if (a.overlaps(b)) return false;
  }
  return true;
}

}  // namespace wimesh
