#pragma once

// Physical-layer propagation: mean path loss between two mesh nodes.
//
// The paper's testbed ran over real WiFi hardware in a building, where link
// quality came from walls and distance rather than a binary radius. This
// model reproduces that: log-distance path loss with a distinct exponent
// for line-of-sight vs obstructed pairs (Winner2-style A/B intercepts, as
// in the hurjaewon indoor mesh scripts), a per-wall penetration loss for
// every axis-independent wall segment the direct path crosses, and a
// per-floor penalty for multi-storey layouts. Log-normal shadowing and the
// time-varying (Jakes) component stack on top of this mean — see
// wimesh/radio/medium.h, which owns the full power budget.
//
// Everything here is a pure function of the configuration and the two
// endpoints: no RNG, no state, safe to share across threads.

#include <vector>

#include "wimesh/common/expected.h"
#include "wimesh/graph/topology.h"

namespace wimesh::radio {

// One wall, modelled as a 2-D segment the signal must penetrate. Walls are
// infinitely thin planes with a lump penetration loss; a zero-length
// segment is a configuration error (see Propagation::try_make).
struct WallSegment {
  Point a;
  Point b;
  double loss_db = 12.0;
};

// Open path loss is A*log10(d/d0) + B + 20*log10(f/5GHz). B is the loss at
// the reference distance d0, for a line-of-sight and an obstructed path.
inline constexpr double kInterceptLosDb = 46.8;
inline constexpr double kInterceptObstructedDb = 46.4;
inline constexpr double kReferenceDistanceM = 1.0;  // d0

struct PropagationConfig {
  double exponent_los = 18.7;       // A when the path crosses no wall
  double exponent_obstructed = 20.0; // A when at least one wall intersects
  double frequency_ghz = 5.0;        // 802.11a band by default
  // Per-wall penetration loss for every wall the direct path crosses.
  std::vector<WallSegment> walls;
  // Multi-floor: |floor(tx) - floor(rx)| * floor_loss_db is added, and a
  // cross-floor path counts as obstructed (the ceiling is an obstacle), so
  // it also uses the obstructed exponent/intercept pair. Floors are
  // assigned per node (see RadioConfig::floors); nodes default to 0.
  double floor_loss_db = 18.0;
};

class Propagation {
 public:
  explicit Propagation(PropagationConfig config);

  // Validating factory (scenario parsing path): rejects non-positive
  // exponents or frequency, zero-length walls and negative wall or floor
  // losses with a named error.
  static Expected<Propagation> try_make(PropagationConfig config);

  // Mean path loss in dB between two positions on the given floors.
  // Symmetric in its arguments. Distances at or below the reference
  // distance cost the intercept alone (never negative loss).
  double loss_db(const Point& tx, const Point& rx, int tx_floor = 0,
                 int rx_floor = 0) const;

  // Number of configured wall segments the open segment tx..rx crosses.
  int wall_crossings(const Point& tx, const Point& rx) const;

  // Loss of an unobstructed path at distance d (no walls, same floor).
  // Monotone in d; used to invert power thresholds into ranges.
  double open_loss_db(double distance_m) const;

  // Distance at which open_loss_db reaches `loss` (inverse of the above).
  double distance_for_open_loss(double loss_db) const;

  const PropagationConfig& config() const { return config_; }

 private:
  PropagationConfig config_;
};

}  // namespace wimesh::radio
