#pragma once

#include "common.h"

namespace perfbench {

// Each workload builds its inputs from opts.seed, measures for
// opts.seconds, runs its output checks outside the timed sections, and
// fills `report` with the end-to-end table (untraced) or the per-layer
// table (traced).
void run_city_tdma(const Options& opts, Report& report);
void run_dcf_fading(const Options& opts, Report& report);
void run_admit_knee(const Options& opts, Report& report);

}  // namespace perfbench
