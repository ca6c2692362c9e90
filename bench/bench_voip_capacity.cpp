// R-F1 — VoIP capacity: admitted calls vs mesh size and scheduler.
//
// All subscriber nodes call the gateway (node 0) with G.729; admission
// keeps adding calls until the schedule breaks. Expected shape: capacity
// shrinks as paths lengthen (every extra hop consumes slots on every link
// it crosses); the delay-aware ILP admits as many calls as the
// delay-unaware ILP on these workloads (delay budgets are generous at
// 10 ms frames) and at least as many as greedy first-fit, whose padding
// wastes slots on dense conflict graphs.
//
// The topology x scheduler grid runs on the parallel executor (--jobs K);
// every cell shares one schedule cache, so repeated admission subproblems
// are solved once. Output is identical for any K.

#include <iterator>

#include "bench_util.h"
#include "wimesh/batch/json.h"
#include "wimesh/exec/executor.h"
#include "wimesh/sched/schedule_cache.h"

using namespace wimesh;
using namespace wimesh::bench;

namespace {

constexpr SchedulerKind kKinds[] = {
    SchedulerKind::kIlpDelayAware, SchedulerKind::kIlpDelayUnaware,
    SchedulerKind::kGreedy, SchedulerKind::kRoundRobin};

std::size_t capacity(Topology topo, SchedulerKind kind, ScheduleCache* cache,
                     bool audit, std::uint64_t* violations) {
  MeshConfig cfg = base_config(std::move(topo));
  cfg.scheduler = kind;
  cfg.ilp.cache = cache;
  cfg.audit = audit;
  MeshNetwork net(cfg);
  int id = 0;
  for (int round = 0; round < 10; ++round) {
    for (NodeId sub = 1; sub < cfg.topology.node_count(); ++sub) {
      net.add_voip_call(id, sub, 0, VoipCodec::g729(),
                        SimTime::milliseconds(100));
      id += 2;
    }
  }
  const std::size_t calls = net.admit_incrementally() / 2;  // flows → calls
  if (audit && calls > 0) {
    // Simulate the admitted set under the auditor: the claimed capacity
    // must actually run conflict-free at full load.
    const SimulationResult r = net.run(MacMode::kTdmaOverlay,
                                       SimTime::seconds(2));
    *violations = r.audit.total_violations();
    if (*violations != 0) {
      std::fprintf(stderr, "%s\n", r.audit.summary().c_str());
    }
  }
  return calls;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  heading("R-F1",
          "VoIP capacity (admitted G.729 calls to the gateway) vs topology");
  row("%-12s %10s %12s %8s %8s", "topology", "ilp-delay", "ilp-nodelay",
      "greedy", "rrobin");
  struct Entry {
    std::string name;
    Topology topo;
  };
  std::vector<Entry> entries;
  for (NodeId n : {3, 4, 5, 6, 7}) {
    entries.push_back({"chain-" + std::to_string(n), make_chain(n, 100.0)});
  }
  entries.push_back({"grid-2x3", make_grid(2, 3, 100.0)});
  entries.push_back({"grid-3x3", make_grid(3, 3, 100.0)});

  ScheduleCache cache;
  constexpr std::size_t kNumKinds = std::size(kKinds);
  std::vector<std::size_t> cells(entries.size() * kNumKinds, 0);
  std::vector<std::uint64_t> violations(cells.size(), 0);
  exec::run_indexed(args.jobs, cells.size(), [&](std::size_t i) {
    cells[i] = capacity(entries[i / kNumKinds].topo, kKinds[i % kNumKinds],
                        &cache, args.audit, &violations[i]);
  });

  for (std::size_t e = 0; e < entries.size(); ++e) {
    row("%-12s %10zu %12zu %8zu %8zu", entries[e].name.c_str(),
        cells[e * kNumKinds + 0], cells[e * kNumKinds + 1],
        cells[e * kNumKinds + 2], cells[e * kNumKinds + 3]);
  }
  std::printf("%s\n", cache.report().c_str());

  if (!args.json_path.empty()) {
    batch::JsonWriter w;
    w.begin_object();
    w.key("bench");
    w.value("voip_capacity");
    w.key("rows");
    w.begin_array();
    static constexpr const char* kKindNames[] = {"ilp_delay", "ilp_nodelay",
                                                 "greedy", "round_robin"};
    for (std::size_t e = 0; e < entries.size(); ++e) {
      w.begin_object();
      w.key("topology");
      w.value(entries[e].name);
      for (std::size_t k = 0; k < kNumKinds; ++k) {
        w.key(kKindNames[k]);
        w.value(static_cast<std::uint64_t>(cells[e * kNumKinds + k]));
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!write_text_file(args.json_path, w.str())) {
      std::fprintf(stderr, "cannot write '%s'\n", args.json_path.c_str());
      return 1;
    }
  }
  std::uint64_t total_violations = 0;
  for (std::uint64_t v : violations) total_violations += v;
  return total_violations == 0 ? 0 : 1;
}
