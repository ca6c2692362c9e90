#pragma once

// Protocol (range-based) radio model.
//
// Two radii: packets decode within comm_range; transmissions disturb
// receivers within interference_range (typically ~2x comm_range). This is
// the standard protocol interference model the paper's conflict graph is
// built from.

#include <vector>

#include "wimesh/common/expected.h"
#include "wimesh/graph/topology.h"

namespace wimesh {

// Per node, the other nodes within interference range, ascending
// (RadioModel::build_interference_sets).
using InterferenceSets = std::vector<std::vector<NodeId>>;

class RadioModel {
 public:
  RadioModel(double comm_range, double interference_range)
      : comm_range_(comm_range), interference_range_(interference_range) {
    WIMESH_ASSERT(comm_range > 0);
    WIMESH_ASSERT(interference_range >= comm_range);
  }

  // Validating factory for externally-supplied ranges (scenario files):
  // names what is wrong instead of asserting. The ctor remains for
  // internally-computed ranges where violations are bugs.
  static Expected<RadioModel> try_make(double comm_range,
                                       double interference_range);

  double comm_range() const { return comm_range_; }
  double interference_range() const { return interference_range_; }

  bool can_communicate(const Point& a, const Point& b) const {
    return distance(a, b) <= comm_range_;
  }
  bool interferes(const Point& tx, const Point& rx) const {
    return distance(tx, rx) <= interference_range_;
  }

  // The interference neighbourhood of every node: sets[i] holds each
  // j != i with interferes(positions[j], positions[i]), in ascending
  // NodeId. distance() is symmetric, so j is in sets[i] iff i is in
  // sets[j]. The one spatial index of the protocol model: the geometric
  // conflict builder and WifiChannel both read it. Nodes are hashed into
  // cells of side interference_range, so the cost is O(N * local
  // density), not O(N^2).
  InterferenceSets build_interference_sets(
      const std::vector<Point>& positions) const;

 private:
  double comm_range_;
  double interference_range_;
};

}  // namespace wimesh
