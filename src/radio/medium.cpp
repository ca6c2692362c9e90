#include "wimesh/radio/medium.h"

#include <cmath>

#include "wimesh/common/assert.h"
#include "wimesh/common/rng.h"

namespace wimesh::radio {
namespace {

// Sub-stream indices under the effective radio seed. Distinct SplitMix64
// derivations keep shadowing and fading decorrelated.
constexpr std::uint64_t kShadowStream = 1;
constexpr std::uint64_t kFadingStream = 2;

}  // namespace

RadioEnvironment::RadioEnvironment(RadioConfig config,
                                   std::vector<Point> positions,
                                   const PhyMode& base_phy,
                                   std::uint64_t effective_seed)
    : config_(std::move(config)),
      positions_(std::move(positions)),
      propagation_(config_.propagation),
      rates_(RateTable::for_phy(base_phy)),
      fading_seed_(Rng::derive_stream(effective_seed, kFadingStream)),
      shadow_seed_(Rng::derive_stream(effective_seed, kShadowStream)) {
  WIMESH_ASSERT(config_.shadowing_sigma_db >= 0.0);
  WIMESH_ASSERT(config_.floors.empty() ||
                config_.floors.size() == positions_.size());
  base_rate_index_ = rates_.index_of(base_phy.nominal_rate_mbps());
  interference_cutoff_dbm_ =
      std::isnan(config_.interference_cutoff_dbm)
          ? config_.noise_floor_dbm + 6.0
          : config_.interference_cutoff_dbm;
}

int RadioEnvironment::floor_of(NodeId n) const {
  WIMESH_ASSERT(n >= 0 && static_cast<std::size_t>(n) < positions_.size());
  if (config_.floors.empty()) return 0;
  return config_.floors[static_cast<std::size_t>(n)];
}

double RadioEnvironment::shadowing_db(NodeId a, NodeId b) const {
  if (config_.shadowing_sigma_db <= 0.0) return 0.0;
  // One draw from the pair's private stream: a pure function of
  // (seed, pair).
  Rng rng(Rng::derive_stream(shadow_seed_, pair_stream_key(a, b)));
  return rng.normal(0.0, config_.shadowing_sigma_db);
}

double RadioEnvironment::mean_rx_power_dbm(NodeId tx, NodeId rx) const {
  WIMESH_ASSERT(tx >= 0 && static_cast<std::size_t>(tx) < positions_.size());
  WIMESH_ASSERT(rx >= 0 && static_cast<std::size_t>(rx) < positions_.size());
  const double loss = propagation_.loss_db(
      positions_[static_cast<std::size_t>(tx)],
      positions_[static_cast<std::size_t>(rx)], floor_of(tx), floor_of(rx));
  return config_.tx_power_dbm - loss + shadowing_db(tx, rx);
}

double RadioEnvironment::rx_power_dbm(NodeId tx, NodeId rx, SimTime t) const {
  return mean_rx_power_dbm(tx, rx) + fading_gain_db(tx, rx, t);
}

}  // namespace wimesh::radio
