#pragma once

// 802.16 mesh distributed *coordinated* scheduling — the three-way
// handshake, round by round.
//
// Where `election.h` computes the steady-state slot ownership in one shot,
// real distributed scheduling converges over control subframes: in each
// round a node that wins the control-channel election sends one
// MSH-DSCH Request for a link; the link's receiver answers with a Grant
// chosen from *its local view* (the grants it has itself confirmed or
// overheard within its neighborhood); the requester Confirms, and only
// then does the range become live. Nodes never see a global conflict
// graph — consistency emerges because both endpoints of every conflicting
// link pair overhear at least one side of each exchange (the same
// 2-hop-visibility argument the standard makes).
//
// The model captures what matters at the scheduling layer: per-round
// progress, local-view grant selection, rejection/retry when views
// disagree, and the convergence-latency-vs-size behaviour (experiment
// R-A4). Control messages are abstracted to one handshake per winner per
// round (a control subframe carries a handful, so this is conservative).

#include <cstdint>
#include <vector>

#include "wimesh/graph/graph.h"
#include "wimesh/wimax/election.h"
#include "wimesh/wimax/mesh_frame.h"

namespace wimesh {

struct DistributedScheduleResult {
  // Converged per-link grants (one contiguous block per link, like the
  // centralized scheduler produces).
  std::vector<SlotRange> grants;       // empty (length 0) = not granted
  std::vector<int> unmet;              // demand still unserved per link
  int rounds = 0;                      // control rounds until convergence
  int handshakes = 0;                  // requests sent (incl. rejected)
  int rejections = 0;                  // grants refused by the confirmer
  int messages_lost = 0;               // handshakes lost to control loss
  // Links that hit max_link_attempts and gave up, in link-id order. An
  // abandoned link keeps its unmet demand, so converged stays false.
  std::vector<LinkId> abandoned;
  bool converged = false;              // all demand served within the cap

  int used_slots() const;
};

// Cap on one handshake backoff, in rounds.
inline constexpr int kHandshakeBackoffCapRounds = 32;
// Seed of the control-loss stream (one draw per handshake; the election
// stream is untouched).
inline constexpr std::uint64_t kControlLossSeed = 0x10ad;

struct DistributedSchedulerConfig {
  int max_rounds = 1000;
  std::uint32_t election_seed = 0x5eed;
  // ---- Handshake hardening (all defaults reproduce the legacy behavior).
  // Give up on a link after this many failed handshakes (0 = never): a
  // permanently ungrantable link otherwise burns one handshake every round
  // it wins until max_rounds.
  int max_link_attempts = 0;
  // After the k-th failure a link waits base << (k-1) rounds (capped at
  // kHandshakeBackoffCapRounds) before requesting again; 0 = retry
  // immediately.
  int backoff_base_rounds = 0;
  // Probability an entire three-way handshake is voided by a lost control
  // message (drawn from kControlLossSeed). Nonzero loss also disables the
  // no-progress early exit: a fully rejected round is then
  // indistinguishable from transient loss, so links must rely on attempt
  // caps/backoff to terminate.
  double control_loss_rate = 0.0;
};

// Runs the handshake to convergence (or the round cap). `demand[l]` is the
// block size link l requests; `conflicts` is the ground-truth conflict
// graph the *simulation* uses to decide which exchanges each node
// overhears — the nodes themselves only ever act on their local views.
DistributedScheduleResult run_distributed_scheduling(
    const LinkSet& links, const std::vector<int>& demand,
    const Graph& conflicts, int frame_slots,
    const DistributedSchedulerConfig& config = {});

// True iff no two conflicting links hold overlapping grants.
bool distributed_schedule_conflict_free(
    const DistributedScheduleResult& result, const Graph& conflicts);

}  // namespace wimesh
