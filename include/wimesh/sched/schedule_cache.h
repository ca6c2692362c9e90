#pragma once

// Concurrent memoizing schedule cache.
//
// Scheduling dominates sweep wall-time: a seed sweep over a fixed topology
// re-solves the exact same min-slots ILP for every run, and call-dynamics
// experiments re-plan structurally identical problems on most arrivals.
// The cache keys on a canonical byte-serialization of the complete
// scheduling question — SchedulingProblem (links, demands, conflict edges,
// flow paths and budgets), frame length, scheduler policy, objective, and
// every solver option that can change the answer — so a hit can never
// return a schedule for a different problem. Exact key bytes are compared
// on lookup; the 64-bit hash only picks the shard.
//
// get_or_compute() runs the solver exactly once per distinct key across
// all threads: concurrent requesters of an in-flight key block until the
// first computation publishes, and count as hits (they did not pay for a
// solve). This keeps hit-rate accounting independent of thread count and
// avoids burning cores on duplicate ILP solves.

#include <cstdint>
#include <functional>
#include <string>

#include "wimesh/sched/scheduler.h"

namespace wimesh {

// The memoized outcome of one scheduling question. `schedule` carries the
// primary (guaranteed-class) grants only; best-effort extras depend on the
// best-effort flow set and are recomputed per plan.
struct CachedSchedule {
  bool feasible = false;
  std::string error;  // solver error when !feasible
  MeshSchedule schedule;
  long ilp_nodes = 0;
  long lp_iterations = 0;
  long install_pivots = 0;
  int search_stages = 0;
};

// Canonical cache key: a byte-exact serialization of the problem plus the
// policy/objective tags and the solver options. Identical problems always
// serialize identically (LinkIds, edge order and flow order are themselves
// deterministic functions of the planning inputs).
std::string schedule_cache_key(const SchedulingProblem& problem,
                               int frame_slots, int policy_tag,
                               int objective_tag,
                               const IlpSchedulerOptions& options);

class ScheduleCache {
 public:
  ScheduleCache();
  ~ScheduleCache();
  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

  // Returns the entry for `key`, invoking `compute` exactly once per
  // distinct key across all threads. Requesters that arrive while the
  // first computation is in flight block until it publishes.
  CachedSchedule get_or_compute(
      const std::string& key,
      const std::function<CachedSchedule()>& compute);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t lookups() const { return hits + misses; }
    double hit_rate() const {
      return lookups() == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(lookups());
    }
  };
  Stats stats() const;

  // Entries currently resident (ready or in flight).
  std::size_t size() const;

  // Drops all entries and resets the counters. Not safe to call while
  // get_or_compute is in flight on another thread.
  void clear();

  // One-line human-readable stats, e.g. for bench output:
  // "schedule cache: 63 hits / 64 lookups (98.4% hit rate, 1 entries)".
  std::string report() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace wimesh
