#pragma once

// The physical channel stack, assembled: configuration for every layer and
// the RadioEnvironment that answers power queries for the channel, the
// SINR conflict-graph builder and the benches.
//
// Received power at time t decomposes as
//     tx_power − path_loss(positions, walls, floors)      (propagation.h)
//              + shadowing(pair)                          (log-normal, static)
//              + fading(pair, t)                          (fading.h, Jakes)
// and every stochastic term is a pure function of (seed, pair[, t]) via
// Rng::derive_stream — never of query order — so runs are bit-identical
// for any --jobs value and radio-enabled sweeps stay reproducible.
//
// The environment is selected per scenario ('radio =' key) and defaults
// off; a null environment leaves every legacy code path untouched, so
// existing scenarios produce byte-identical output.
//
// A RadioEnvironment is immutable after construction and holds no cache:
// every query recomputes its answer, so one environment is safe to share
// between threads, planners and channels. Callers that read the same
// pairs at a high rate keep their own dense copies — the wifi channel
// builds per-run gain rows from mean_rx_power_dbm and append_fading_bank.

#include <cstdint>
#include <limits>
#include <vector>

#include "wimesh/common/expected.h"
#include "wimesh/radio/fading.h"
#include "wimesh/radio/propagation.h"
#include "wimesh/radio/reception.h"

namespace wimesh::radio {

// Minstrel-style rate adaptation knobs (wimesh/radio/minstrel.h).
struct RateAdaptConfig {
  bool enabled = false;
  // Every Nth data transmission on a link probes a non-best rate instead
  // of using the current best (deterministic round-robin probe order).
  int probe_interval = 16;
  // EWMA weight of the newest per-rate success sample.
  double ewma_alpha = 0.25;
};

struct RadioConfig {
  // Master switch. Off = the binary protocol model (RadioModel) governs
  // reception and conflicts exactly as before this subsystem existed.
  bool enabled = false;
  PropagationConfig propagation;
  // Log-normal shadowing: one zero-mean normal(sigma) dB offset per
  // unordered node pair, constant for the run (obstacles do not move).
  double shadowing_sigma_db = 0.0;
  FadingConfig fading;
  RateAdaptConfig rate_adapt;
  double tx_power_dbm = 17.0;
  double noise_floor_dbm = -96.0;
  // A reception survives concurrent interference only if its SINR clears
  // this threshold (capture effect); below it the frame is a collision
  // loss regardless of the error curve.
  double capture_threshold_db = 10.0;
  // Carrier-sense / preamble-detect power: a node hears the medium busy
  // when any transmission reaches it above this level.
  double cs_threshold_dbm = -82.0;
  // Mean interferer power at or above which two links conflict in the
  // SINR conflict graph. NaN = auto (noise floor + 6 dB).
  double interference_cutoff_dbm =
      std::numeric_limits<double>::quiet_NaN();
  // Root seed of the shadowing/fading streams. 0 = derive from the run
  // seed, so sweeps see an independent channel per run.
  std::uint64_t seed = 0;
  // Storey of each node (indexed by NodeId; empty = everyone on floor 0).
  std::vector<int> floors;
};

class RadioEnvironment {
 public:
  // `base_phy` anchors the rate ladder: its family selects the RateTable
  // and its rate is the planning rate — the floor rate adaptation may
  // never go below, so adapted airtimes cannot outgrow TDMA slot sizing.
  // The propagation config must already be valid (see Propagation::
  // try_make; scenario parsing validates before construction).
  RadioEnvironment(RadioConfig config, std::vector<Point> positions,
                   const PhyMode& base_phy, std::uint64_t effective_seed);

  const RadioConfig& config() const { return config_; }
  const Propagation& propagation() const { return propagation_; }
  const RateTable& rates() const { return rates_; }
  std::size_t base_rate_index() const { return base_rate_index_; }
  NodeId node_count() const {
    return static_cast<NodeId>(positions_.size());
  }
  int floor_of(NodeId n) const;

  // Mean received power: tx_power − path loss + shadowing. Symmetric.
  double mean_rx_power_dbm(NodeId tx, NodeId rx) const;
  // Instantaneous received power: mean + fading(t).
  double rx_power_dbm(NodeId tx, NodeId rx, SimTime t) const;
  double fading_gain_db(NodeId tx, NodeId rx, SimTime t) const {
    return pair_gain_db(fading_seed_, config_.fading, tx, rx, t);
  }
  // Appends the pair's fading bank (nothing when fading is off): the one
  // fading_gain_db evaluates, drawn in the same order.
  void append_fading_bank(NodeId tx, NodeId rx,
                          std::vector<JakesOscillator>& out) const {
    append_pair_bank(fading_seed_, config_.fading, tx, rx, out);
  }

  double snr_db(double rx_power_dbm) const {
    return rx_power_dbm - config_.noise_floor_dbm;
  }
  double sinr_db(double rx_power_dbm, double interference_mw) const {
    return radio::sinr_db(rx_power_dbm, interference_mw,
                          config_.noise_floor_dbm);
  }
  double capture_threshold_db() const { return config_.capture_threshold_db; }
  double cs_threshold_dbm() const { return config_.cs_threshold_dbm; }
  // The SINR conflict-graph cutoff with the auto default resolved.
  double interference_cutoff_dbm() const { return interference_cutoff_dbm_; }

 private:
  double shadowing_db(NodeId a, NodeId b) const;

  RadioConfig config_;
  std::vector<Point> positions_;
  Propagation propagation_;
  RateTable rates_;
  std::size_t base_rate_index_ = 0;
  std::uint64_t fading_seed_ = 0;
  std::uint64_t shadow_seed_ = 0;
  double interference_cutoff_dbm_ = 0.0;
};

}  // namespace wimesh::radio
