#pragma once

// Text scenario format: one file describes a complete experiment —
// topology, radio, frame layout, scheduler, traffic mix, MAC and duration —
// so studies can be driven without recompiling (examples/wimesh_run.cpp).
//
// Numbers are range-checked (wimesh/common/parse.h): N is an integer, X a
// finite real, [a, b] / (a, b] their ranges. A value out of range, or a
// fraction, NaN or inf where an integer is due, is an error naming the
// line and field; so is a node id outside the final topology. Integers
// may use exact exponent forms ("1e3"); decimal literals from 2^53 up
// must be exact doubles. Unlisted integers range over their type.
//
//   # lines starting with '#' are comments; keys are 'key = value'
//   topology = grid 3 3 100
//       chain N S | grid R C S | ring N RADIUS | random N SIDE RANGE SEED |
//       tree A D S | custom. N, R, C, A in [1, 2^31-1] (ring N >= 3; the
//       grid and tree node counts too), D in [0, 2^31-1], S and RADIUS in
//       [0, 1e6] m, SIDE and RANGE in (0, 1e6] m.
//   node 0 0 0
//   link 0 1
//       with 'topology = custom': one 'node <id> <x> <y>' line per node
//       (dense ids 0..N-1, x and y in [-1e6, 1e6] m) and one 'link <u> <v>'
//       line per edge. Duplicates, self-loops and undeclared endpoints are
//       scenario errors, not crashes.
//   zones = 4           # N in [0, 2^31-1] zones scheduled in parallel
//                       # (wimesh::zones); 0 = off (default)
//   comm_range = 110    # metres in [0.001, 1e6]
//   interference_range = 220   # [0.001, 1e6] m and >= comm_range
//   phy = ofdm54        # ofdm{6,9,12,18,24,36,48,54}, dsss{1,2,5,11}
//   radio = on,shadowing=4,fading=jakes
//       physical channel stack (wimesh/radio) replacing the binary protocol
//       model; omitted = protocol model, bit-for-bit. Knobs: on |
//       model=physical|protocol | shadowing=DB [0, 100] | fading=jakes|none |
//       doppler=HZ (0, 1e6] | oscillators=N [1, 1024] | txpower=DBM |
//       noise=DBM | capture=DB | cs=DBM | cutoff=DBM | exponent_los=X |
//       exponent_obstructed=X | floor_loss=DB [0, 1000] |
//       freq=GHZ (0, 1000] | adapt=on|off | probe=N [2, 1e6] |
//       ewma=X (0, 1] | seed=N
//   wall 50 0 50 100 12 # obstacle x1 y1 x2 y2 [loss_db], in [-1e6, 1e6] m
//                       # (needs a 'radio =' line to take effect)
//   floor 4 1           # 'floor <node> <level>': storey of a node (default
//                       # 0, level in [-1000, 1000]); each level of
//                       # separation adds floor_loss dB
//   frame_ms = 10       # N in [1, 1000]
//   control_slots = 4   # N in [0, 4096]
//   data_slots = 96     # N in [1, 4096]
//   guard_us = auto     # 'auto' or N in [0, 1000000] microseconds
//   scheduler = ilp-delay      # ilp-delay|ilp-nodelay|greedy|round-robin
//   ilp = threads=4,portfolio=2
//       ILP solver knobs: [no-]cuts | [no-]symmetry | [no-]warm |
//       [no-]tree | portfolio=N [1, 64] (above 4 runs as 4) |
//       threads=N [1, 1024] | max_nodes=N [0, 2^63-1] |
//       time_limit_s=X [0, 1e6]
//   routing = hop       # hop | load-aware
//   mac = tdma          # tdma | dcf | edca
//   duration_s = 10     # X in [0, 1e6]
//   seed = 1
//   packet_error_rate = 0      # X in [0, 1]
//   rts_cts = off       # on | off
//   audit = on          # off | on | fail-fast
//   fault = node-crash@2 node=4; master-fail@3
//                       # fault-plan grammar and ranges in
//                       # wimesh/faults/plan.h
//   trace = off         # off | on | all | comma list of des,tdma,wifi,
//                       # sync,faults,prof,ilp,admit,zones,chaos,radio
//   admit = rate=0.5,holding=60
//       online admission churn replay (wimesh::admit) instead of a packet
//       simulation; the scenario may then omit traffic. Knobs: on |
//       rate=CALLS_PER_S [0.001, 1e6] | holding=S (0, 1e6] |
//       horizon=S [0, 1e6] | events=N (0 = horizon only) |
//       codec=g711|g729|g723 | max_delay_ms=N [1, 3600000] |
//       be_fraction=X [0, 1] | seed=N | compaction=N [0, 1e6] |
//       [no-]degrade | [no-]check ('check' cross-checks every decision
//       against the cold re-solve oracle)
//
// Repeated 'radio =', 'ilp =', 'admit =' and 'fault =' lines accumulate;
// later tokens win.
//
//   # traffic (one per line): ids in [0, 2^31-2] (a call uses id and
//   # id + 1), max_delay_ms in [1, 3600000], rate_bps in [1, 1e10],
//   # mean_bps in [1000, 1e10], bytes in [1, 65535], and a bulk flow's
//   # rate_bps / (8 * bytes) at most 50,000 packets/s
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
