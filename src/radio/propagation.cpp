#include "wimesh/radio/propagation.h"

#include <algorithm>
#include <cmath>

#include "wimesh/common/strings.h"

namespace wimesh::radio {
namespace {

// Orientation of the ordered triple (p, q, r): sign of the cross product.
int orientation(const Point& p, const Point& q, const Point& r) {
  const double cross =
      (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x);
  if (cross > 0.0) return 1;
  if (cross < 0.0) return -1;
  return 0;
}

bool on_segment(const Point& p, const Point& q, const Point& r) {
  return std::min(p.x, r.x) <= q.x && q.x <= std::max(p.x, r.x) &&
         std::min(p.y, r.y) <= q.y && q.y <= std::max(p.y, r.y);
}

// Proper or touching intersection of segments p1..p2 and q1..q2. The
// standard orientation test; collinear overlap counts as one crossing.
bool segments_intersect(const Point& p1, const Point& p2, const Point& q1,
                        const Point& q2) {
  const int o1 = orientation(p1, p2, q1);
  const int o2 = orientation(p1, p2, q2);
  const int o3 = orientation(q1, q2, p1);
  const int o4 = orientation(q1, q2, p2);
  if (o1 != o2 && o3 != o4) return true;
  if (o1 == 0 && on_segment(p1, q1, p2)) return true;
  if (o2 == 0 && on_segment(p1, q2, p2)) return true;
  if (o3 == 0 && on_segment(q1, p1, q2)) return true;
  if (o4 == 0 && on_segment(q1, p2, q2)) return true;
  return false;
}

}  // namespace

Propagation::Propagation(PropagationConfig config)
    : config_(std::move(config)) {
  WIMESH_ASSERT(config_.exponent_los > 0.0);
  WIMESH_ASSERT(config_.exponent_obstructed > 0.0);
  WIMESH_ASSERT(config_.frequency_ghz > 0.0);
}

Expected<Propagation> Propagation::try_make(PropagationConfig config) {
  if (config.exponent_los <= 0.0 || config.exponent_obstructed <= 0.0) {
    return make_error(
        str_cat("path-loss exponent must be > 0 (got los=",
                fmt_double(config.exponent_los, 2), ", obstructed=",
                fmt_double(config.exponent_obstructed, 2), ")"));
  }
  if (config.frequency_ghz <= 0.0) {
    return make_error(str_cat("carrier frequency must be > 0 (got ",
                              fmt_double(config.frequency_ghz, 2), " GHz)"));
  }
  if (config.floor_loss_db < 0.0) {
    return make_error(str_cat("floor loss must be >= 0 dB (got ",
                              fmt_double(config.floor_loss_db, 2), ")"));
  }
  for (std::size_t i = 0; i < config.walls.size(); ++i) {
    const WallSegment& w = config.walls[i];
    if (w.a.x == w.b.x && w.a.y == w.b.y) {
      return make_error(str_cat("wall ", i + 1, " has zero length (segment (",
                                fmt_double(w.a.x, 1), ",",
                                fmt_double(w.a.y, 1),
                                ") collapses to a point)"));
    }
    if (w.loss_db < 0.0) {
      return make_error(str_cat("wall ", i + 1, " has negative loss (",
                                fmt_double(w.loss_db, 2), " dB)"));
    }
  }
  return Propagation(std::move(config));
}

int Propagation::wall_crossings(const Point& tx, const Point& rx) const {
  int crossings = 0;
  for (const WallSegment& w : config_.walls) {
    if (segments_intersect(tx, rx, w.a, w.b)) ++crossings;
  }
  return crossings;
}

double Propagation::open_loss_db(double distance_m) const {
  const double d = std::max(distance_m, kReferenceDistanceM);
  return config_.exponent_los *
             std::log10(d / kReferenceDistanceM) +
         kInterceptLosDb +
         20.0 * std::log10(config_.frequency_ghz / 5.0);
}

double Propagation::distance_for_open_loss(double loss_db) const {
  const double base =
      kInterceptLosDb + 20.0 * std::log10(config_.frequency_ghz / 5.0);
  if (loss_db <= base) return kReferenceDistanceM;
  return kReferenceDistanceM *
         std::pow(10.0, (loss_db - base) / config_.exponent_los);
}

double Propagation::loss_db(const Point& tx, const Point& rx, int tx_floor,
                            int rx_floor) const {
  const double d = std::max(distance(tx, rx), kReferenceDistanceM);
  double wall_loss = 0.0;
  int crossings = 0;
  if (!config_.walls.empty()) {
    for (const WallSegment& w : config_.walls) {
      if (segments_intersect(tx, rx, w.a, w.b)) {
        ++crossings;
        wall_loss += w.loss_db;
      }
    }
  }
  const bool obstructed = crossings > 0 || tx_floor != rx_floor;
  const double exponent =
      obstructed ? config_.exponent_obstructed : config_.exponent_los;
  const double intercept =
      obstructed ? kInterceptObstructedDb : kInterceptLosDb;
  const double open = exponent * std::log10(d / kReferenceDistanceM) +
                      intercept +
                      20.0 * std::log10(config_.frequency_ghz / 5.0);
  const double floor_loss =
      config_.floor_loss_db * std::abs(tx_floor - rx_floor);
  return open + wall_loss + floor_loss;
}

}  // namespace wimesh::radio
