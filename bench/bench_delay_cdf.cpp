// R-F4 — VoIP delay distribution (CDF) and jitter under both MACs.
//
// Fixed scenario: 5-chain, one G.729 call end-to-end plus 6 Mbit/s of
// best-effort crossing traffic. Prints the delay CDF of the VoIP flows
// under the TDMA overlay and under DCF at matching quantiles. Expected
// shape: the overlay's CDF is a steep near-step bounded by the analytic
// worst case (delay is set by slot positions, not queueing); DCF's CDF has
// a long right tail once the BE load contends.
//
// The two MAC runs are independent and execute on the parallel executor
// (--jobs K); output is identical for any K.

#include "bench_util.h"
#include "wimesh/common/json.h"
#include "wimesh/exec/executor.h"
#include "wimesh/sched/schedule_cache.h"

using namespace wimesh;
using namespace wimesh::bench;

namespace {

constexpr double kQuantiles[] = {0.10, 0.25, 0.50, 0.75, 0.90,
                                 0.95, 0.99, 0.999, 1.0};

MeshNetwork build(ScheduleCache* cache, bool audit) {
  MeshConfig cfg = base_config(make_chain(5, 100.0));
  cfg.ilp.cache = cache;
  cfg.audit = audit;
  MeshNetwork net(cfg);
  net.add_voip_call(0, 0, 4, VoipCodec::g729(), SimTime::milliseconds(120));
  net.add_flow(FlowSpec::best_effort(100, 4, 0, 1200, 3e6));
  net.add_flow(FlowSpec::best_effort(101, 0, 4, 1200, 3e6));
  return net;
}

// Pools the delay samples of the two VoIP flows.
SampleSet voip_delays(const SimulationResult& r) {
  SampleSet all;
  for (const FlowResult& f : r.flows) {
    if (f.spec.service != ServiceClass::kGuaranteed) continue;
    for (double d : f.stats.delays_ms().samples()) all.add(d);
  }
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  heading("R-F4", "VoIP delay CDF: TDMA overlay vs 802.11 DCF (chain-5 + BE)");

  constexpr MacMode kModes[] = {MacMode::kTdmaOverlay, MacMode::kDcf};
  ScheduleCache cache;
  SimulationResult runs[2];
  double analytic = 0.0;
  exec::run_indexed(args.jobs, 2, [&](std::size_t i) {
    MeshNetwork net = build(&cache, args.audit);
    WIMESH_ASSERT(net.compute_plan().has_value());
    runs[i] = net.run(kModes[i], SimTime::seconds(20));
    if (kModes[i] == MacMode::kTdmaOverlay) {
      for (const FlowPlan& f : net.plan().guaranteed) {
        analytic = std::max(analytic, f.worst_case_delay.to_ms());
      }
    }
  });
  const SimulationResult& tdma = runs[0];
  const SimulationResult& dcf = runs[1];

  const SampleSet td = voip_delays(tdma);
  const SampleSet dd = voip_delays(dcf);
  WIMESH_ASSERT(!td.empty() && !dd.empty());

  row("%-10s %12s %12s", "quantile", "tdma_ms", "dcf_ms");
  for (double q : kQuantiles) {
    row("%-10.3f %12.3f %12.3f", q, td.quantile(q), dd.quantile(q));
  }
  row("%-10s %12.3f %12.3f", "mean", td.mean(), dd.mean());
  row("%-10s %12.3f %12.3f", "jitter", mean_voip_jitter_ms(tdma),
      mean_voip_jitter_ms(dcf));
  row("%-10s %12.4f %12.4f", "loss", worst_voip_loss(tdma),
      worst_voip_loss(dcf));
  row("%-10s %12.3f %12s", "analytic", analytic, "-");
  std::printf("%s\n", cache.report().c_str());

  if (!args.json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("bench");
    w.value("delay_cdf");
    w.key("quantiles");
    w.begin_array();
    for (double q : kQuantiles) {
      w.begin_object();
      w.key("q");
      w.value(q);
      w.key("tdma_ms");
      w.value(td.quantile(q));
      w.key("dcf_ms");
      w.value(dd.quantile(q));
      w.end_object();
    }
    w.end_array();
    w.key("tdma_mean_ms");
    w.value(td.mean());
    w.key("dcf_mean_ms");
    w.value(dd.mean());
    w.key("tdma_jitter_ms");
    w.value(mean_voip_jitter_ms(tdma));
    w.key("dcf_jitter_ms");
    w.value(mean_voip_jitter_ms(dcf));
    w.key("tdma_loss");
    w.value(worst_voip_loss(tdma));
    w.key("dcf_loss");
    w.value(worst_voip_loss(dcf));
    w.key("analytic_worst_ms");
    w.value(analytic);
    w.end_object();
    if (!written(write_text_file(args.json_path, w.str()))) {
      return 1;
    }
  }
  std::uint64_t violations = 0;
  violations += audit_violations("tdma", tdma);
  violations += audit_violations("dcf", dcf);
  return violations == 0 ? 0 : 1;
}
