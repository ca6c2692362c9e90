#include "wimesh/phy/radio_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "wimesh/common/strings.h"

namespace wimesh {
namespace {

// Cell coordinate of `v` along one axis for cells of side `side`.
// Monotone in v (rounded division and floor both are); the clamp keeps it
// monotone and the cast defined for any finite input.
std::int64_t cell_of(double v, double side) {
  constexpr double kLimit = 4503599627370496.0;  // 2^52
  return static_cast<std::int64_t>(
      std::clamp(std::floor(v / side), -kLimit, kLimit));
}

// A node in the spatial hash, ordered by cell column, row, then id.
struct Cell {
  std::int64_t cx = 0;
  std::int64_t cy = 0;
  NodeId id = kInvalidNode;
  friend auto operator<=>(const Cell&, const Cell&) = default;
};

}  // namespace

Expected<RadioModel> RadioModel::try_make(double comm_range,
                                          double interference_range) {
  if (!(comm_range > 0)) {
    return make_error(str_cat("comm_range must be > 0, got ",
                              fmt_double(comm_range)));
  }
  if (!(interference_range >= comm_range)) {
    return make_error(str_cat("interference_range (",
                              fmt_double(interference_range),
                              ") must be >= comm_range (",
                              fmt_double(comm_range), ")"));
  }
  return RadioModel(comm_range, interference_range);
}

InterferenceSets RadioModel::build_interference_sets(
    const std::vector<Point>& positions) const {
  const double side = interference_range_;
  std::vector<Cell> cells;
  cells.reserve(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    cells.push_back({cell_of(positions[i].x, side),
                     cell_of(positions[i].y, side),
                     static_cast<NodeId>(i)});
  }
  std::sort(cells.begin(), cells.end());

  std::vector<std::vector<NodeId>> sets(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Point& p = positions[i];
    // Every node within range lies in the box p +- pad. The pad exceeds
    // the range by a relative slack far above the rounding of hypot and of
    // the coordinate differences, so a node at a computed distance of
    // exactly the range is found even when it sits on a cell edge (floor
    // puts -1e-16 and +range two cells apart). cell_of is monotone, so the
    // box's cells are exactly [cell_of(lo), cell_of(hi)] on each axis.
    const double pad = side + 1e-9 * (side + std::abs(p.x) + std::abs(p.y));
    const std::int64_t x_hi = cell_of(p.x + pad, side);
    const std::int64_t y_lo = cell_of(p.y - pad, side);
    const std::int64_t y_hi = cell_of(p.y + pad, side);
    std::vector<NodeId>& out = sets[i];
    // Walk only occupied cells: jump to each column's y_lo and leave it
    // past y_hi, so empty cells in the box cost nothing and each occupied
    // column one binary search.
    auto it = std::lower_bound(cells.begin(), cells.end(),
                               Cell{cell_of(p.x - pad, side), y_lo, 0});
    while (it != cells.end() && it->cx <= x_hi) {
      if (it->cy < y_lo || it->cy > y_hi) {
        const std::int64_t cx = it->cy < y_lo ? it->cx : it->cx + 1;
        it = std::lower_bound(it, cells.end(), Cell{cx, y_lo, 0});
        continue;
      }
      if (it->id != static_cast<NodeId>(i) &&
          interferes(positions[static_cast<std::size_t>(it->id)], p)) {
        out.push_back(it->id);
      }
      ++it;
    }
    std::sort(out.begin(), out.end());
  }
  return sets;
}

}  // namespace wimesh
