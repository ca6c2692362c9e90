#pragma once

// Admission-churn runner: executes a scenario's 'admit =' replay
// (wimesh::admit) instead of a packet-level simulation, and renders the
// text / JSON reports behind `wimesh_run --admit`.

#include <string>

#include "wimesh/admit/engine.h"
#include "wimesh/core/scenario.h"
#include "wimesh/sched/schedule_cache.h"

namespace wimesh::batch {

struct AdmitRunResult {
  admit::ChurnResult churn;
  // Populated when the scenario asked for 'check' (every capacity-gated
  // decision cross-checked against the cold re-solve oracle).
  admit::DifferentialReport differential;
  bool checked = false;
};

// Replays the Poisson churn the scenario describes through an
// AdmissionEngine on the scenario mesh's planner (MeshNetwork::planner:
// resolved guard, routing, and the SINR conflict graph under 'radio ='). `cache` (optional, not owned) memoizes the
// stage-3 solves; sharing it across runs never changes any decision.
AdmitRunResult run_admission_churn(const Scenario& scenario,
                                   ScheduleCache* cache = nullptr);

// Human-readable report: decision counters by stage, latency percentiles,
// blocking probability, carried-call statistics, oracle verdict.
std::string format_admit_report(const Scenario& scenario,
                                const AdmitRunResult& result);

// JSON document for one churn run. Counters and blocking are deterministic
// in the spec seed; the latency block is wall clock and varies run to run.
std::string admit_json(const Scenario& scenario, const AdmitRunResult& result);

}  // namespace wimesh::batch
