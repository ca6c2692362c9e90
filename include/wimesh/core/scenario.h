#pragma once

// Text scenario format: one file describes a complete experiment —
// topology, radio, frame layout, scheduler, traffic mix, MAC and duration —
// so studies can be driven without recompiling (examples/wimesh_run.cpp).
//
//   # lines starting with '#' are comments; keys are 'key = value'
//   topology = grid 3 3 100          # chain N S | grid R C S | ring N R |
//                                    # random N SIDE RANGE SEED | tree A D S |
//                                    # custom (chain N >= 1, ring N >= 3,
//                                    # both integers)
//   node 0 0 0                       # with 'topology = custom': one
//   node 1 100 0                     # 'node <id> <x> <y>' line per node
//   link 0 1                         # (dense ids 0..N-1) and one
//                                    # 'link <u> <v>' line per edge.
//                                    # Duplicate nodes/links, self-loops
//                                    # and undeclared endpoints are
//                                    # scenario errors, not crashes.
//   zones = 4                        # partition the mesh into N zones and
//                                    # schedule them in parallel
//                                    # (wimesh::zones); 0 = off (default)
//   comm_range = 110
//   interference_range = 220
//   phy = ofdm54                     # ofdm{6,9,12,18,24,36,48,54},
//                                    # dsss{1,2,5,11}
//   radio = on,shadowing=4,fading=jakes
//                                    # physical channel stack (wimesh/radio)
//                                    # replacing the binary protocol model.
//                                    # Comma-separated knobs:
//                                    #   on | model=physical|protocol |
//                                    #   shadowing=SIGMA_DB |
//                                    #   fading=jakes|none | doppler=HZ |
//                                    #   oscillators=N | txpower=DBM |
//                                    #   noise=DBM | capture=DB | cs=DBM |
//                                    #   cutoff=DBM | exponent_los=X |
//                                    #   exponent_obstructed=X |
//                                    #   floor_loss=DB | freq=GHZ |
//                                    #   adapt=on|off | probe=N | ewma=X |
//                                    #   seed=N
//                                    # Repeated 'radio =' lines accumulate.
//                                    # Omitted = protocol model, bit-for-bit
//                                    # the pre-radio behavior.
//   wall 50 0 50 100 12              # obstacle segment x1 y1 x2 y2 [loss_db]
//                                    # (any topology; needs a 'radio =' line
//                                    # to take effect)
//   floor 4 1                        # 'floor <node> <level>': storey of a
//                                    # node (default 0); each level of
//                                    # separation adds floor_loss dB
//   frame_ms = 10                    # integer in [1, 1000]
//   control_slots = 4                # integer in [0, 4096]
//   data_slots = 96                  # integer in [1, 4096]
//   guard_us = auto                  # 'auto' or integer microseconds
//                                    # in [0, 1000000]
//   scheduler = ilp-delay            # ilp-delay|ilp-nodelay|greedy|round-robin
//   ilp = threads=4,portfolio=2      # ILP solver knobs, comma-separated:
//                                    #   [no-]cuts | [no-]symmetry |
//                                    #   [no-]warm | [no-]tree |
//                                    #   portfolio=N | threads=N |
//                                    #   max_nodes=N | time_limit_s=X
//                                    # repeated 'ilp =' lines accumulate
//   routing = hop                    # hop | load-aware
//   mac = tdma                       # tdma | dcf | edca
//   duration_s = 10
//   seed = 1
//   audit = on                       # off | on | fail-fast
//   fault = node-crash@2 node=4; master-fail@3
//                                    # fault-plan grammar in
//                                    # wimesh/faults/plan.h; repeated
//                                    # 'fault =' lines accumulate
//   trace = off                      # off | on | all |
//                                    # des,tdma,wifi,sync,faults,prof,admit
//                                    # (wimesh/trace category filter)
//   admit = rate=0.5,holding=60      # online admission churn replay
//                                    # (wimesh::admit) instead of a packet
//                                    # simulation. Comma-separated knobs:
//                                    #   on | rate=CALLS_PER_S |
//                                    #   holding=S | horizon=S | events=N |
//                                    #   codec=g711|g729|g723 |
//                                    #   max_delay_ms=N | be_fraction=X |
//                                    #   seed=N | compaction=N |
//                                    #   [no-]degrade | [no-]check
//                                    # 'check' cross-checks every decision
//                                    # against the cold re-solve oracle.
//                                    # Repeated 'admit =' lines accumulate.
//                                    # A scenario with 'admit =' may omit
//                                    # traffic declarations.
//
//   # traffic declarations (one per line):
//   voip <id> <a> <b> <codec> <max_delay_ms>    # bidirectional call
//   video <id> <src> <dst> <mean_bps>           # rtPS-style VBR stream
//   bulk <id> <src> <dst> <bytes> <rate_bps>    # best-effort Poisson

#include <string>
#include <vector>

#include "wimesh/admit/engine.h"
#include "wimesh/common/expected.h"
#include "wimesh/core/mesh_network.h"

namespace wimesh {

struct Scenario {
  MeshConfig config;
  std::vector<FlowSpec> flows;
  MacMode mac = MacMode::kTdmaOverlay;
  SimTime duration = SimTime::seconds(10);
  // Online admission churn ('admit =' key / wimesh_run --admit). When
  // enabled the CLI replays Poisson call churn through an
  // admit::AdmissionEngine instead of running a packet-level simulation.
  bool admit_enabled = false;
  bool admit_check = false;    // cross-check vs the cold re-solve oracle
  bool admit_degrade = false;  // serve rejected arrivals as best-effort
  int admit_compaction = 8;    // departures tolerated before compaction
  admit::ChurnSpec admit_churn;
};

// Parses the text form; returns a message naming the offending line on
// failure. Unknown keys are errors (typos should not silently change an
// experiment).
Expected<Scenario> parse_scenario(const std::string& text);

// Renders a human-readable per-flow report of a finished run.
std::string format_report(const Scenario& scenario,
                          const SimulationResult& result);

}  // namespace wimesh
