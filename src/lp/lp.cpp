#include "wimesh/lp/lp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace wimesh {

VarId LpModel::add_variable(double lo, double up) {
  WIMESH_ASSERT_MSG(lo <= up, "variable created with empty domain");
  WIMESH_ASSERT(!std::isnan(lo) && !std::isnan(up));
  vars_.push_back(Var{lo, up});
  return static_cast<VarId>(vars_.size() - 1);
}

RowId LpModel::add_constraint(const std::vector<LpTerm>& terms, RowSense sense,
                              double rhs) {
  WIMESH_ASSERT(std::isfinite(rhs));
  // Merge duplicate variables so the solver sees clean rows.
  Row row;
  row.sense = sense;
  row.rhs = rhs;
  row.terms = terms;
  std::sort(row.terms.begin(), row.terms.end(),
            [](const LpTerm& a, const LpTerm& b) { return a.var < b.var; });
  std::vector<LpTerm> merged;
  for (const LpTerm& t : row.terms) {
    WIMESH_ASSERT(t.var >= 0 && t.var < variable_count());
    WIMESH_ASSERT(std::isfinite(t.coef));
    if (!merged.empty() && merged.back().var == t.var) {
      merged.back().coef += t.coef;
    } else {
      merged.push_back(t);
    }
  }
  row.terms = std::move(merged);
  nonzeros_ += row.terms.size();
  rows_.push_back(std::move(row));
  return static_cast<RowId>(rows_.size() - 1);
}

void LpModel::set_bounds(VarId v, double lo, double up) {
  // lo > up is allowed here: branch & bound creates empty domains on
  // purpose and expects the solver to report infeasibility.
  auto& var = vars_[check_var(v)];
  var.lo = lo;
  var.up = up;
}

double LpModel::max_violation(const std::vector<double>& x) const {
  WIMESH_ASSERT(x.size() == vars_.size());
  double worst = 0.0;
  for (std::size_t j = 0; j < vars_.size(); ++j) {
    worst = std::max(worst, vars_[j].lo - x[j]);
    worst = std::max(worst, x[j] - vars_[j].up);
  }
  for (const Row& row : rows_) {
    double lhs = 0.0;
    for (const LpTerm& t : row.terms) {
      lhs += t.coef * x[static_cast<std::size_t>(t.var)];
    }
    switch (row.sense) {
      case RowSense::kLessEqual:
        worst = std::max(worst, lhs - row.rhs);
        break;
      case RowSense::kGreaterEqual:
        worst = std::max(worst, row.rhs - lhs);
        break;
      case RowSense::kEqual:
        worst = std::max(worst, std::abs(lhs - row.rhs));
        break;
    }
  }
  return worst;
}

namespace detail {

// Dense simplex with general (possibly infinite) variable bounds that
// looks for a feasible point only. Column layout: [structural | slack (one
// per row) | artificial (one per row)]. A cold solve runs phase 1 (the
// primal simplex on the sum of the artificials) from the all-artificial
// basis; a warm solve installs a hinted basis and repairs it with the dual
// simplex. With no objective every basis is dual feasible, so the repair
// needs no reduced costs. The full tableau T = B^-1 * A is maintained
// explicitly; per-pivot cost is O(rows * cols), which is fine at the scale
// of the scheduling ILP relaxations this repo solves (hundreds of rows).
// The tableau survives between solve() calls; see LpSolver.
class Simplex {
 public:
  explicit Simplex(const LpModel& model) : model_(model) {}

  LpResult solve(const LpBasis* warm, LpBasis* basis_out);

 private:
  enum class Status : std::uint8_t { kBasic, kAtLower, kAtUpper, kFreeZero };

  // Outcome of the dual-simplex repair pass used by warm starts.
  enum class DualOutcome { kFeasible, kInfeasible, kIterationLimit, kStalled };

  struct Pick {
    int col = -1;
    int dir = 0;  // +1: increase entering var, -1: decrease
  };

  std::size_t idx(int i) const { return static_cast<std::size_t>(i); }
  double& t_at(int r, int c) { return tab_[idx(r) * idx(cols_) + idx(c)]; }
  double t_at(int r, int c) const {
    return tab_[idx(r) * idx(cols_) + idx(c)];
  }

  void build();
  // Moves the tableau onto the model's current variable bounds: a
  // nonbasic column whose bound moved shifts xb_ by its tableau column; a
  // basic column only takes the new lo_/up_ (the dual simplex repairs any
  // violation).
  void refresh_bounds();
  // The nonbasic status a column takes for a wanted status under its
  // current bounds (a missing bound falls back to the other one, or free).
  Status status_on_bounds(int j, LpVarStatus want) const;
  // xb_ -= T[:, j] * delta: nonbasic column j moved by delta.
  void shift_nonbasic(int j, double delta);
  double nonbasic_value(int j) const;
  Pick choose_entering(bool bland) const;
  // One phase-1 iteration; returns whether the entering column moved by
  // more than the feasibility tolerance (false: a degenerate step).
  bool step(const Pick& pick);
  // Gauss-Jordan elimination of the tableau around pivot (leave_row, q).
  // `update_rhs` applies the same row operations to xb_ (used while
  // installing a warm basis, where xb_ is the literal rhs column; the
  // simplex iterations maintain xb_ incrementally instead).
  void pivot_tableau(int leave_row, int q, bool update_rhs);
  bool install_warm(const LpBasis& hint);
  bool primal_feasible() const;
  // Gives up (kStalled) after `max_pivots` pivots of this run.
  DualOutcome run_dual(long max_pivots);
  // Length at which a run of pivots counts as stuck: Bland's rule takes
  // over in phase 1, the dual gives up.
  int stall_limit() const { return 2 * (m_ + cols_) + 64; }
  // Finishes a solve from an installed warm basis, after a dual-simplex
  // repair of at most `dual_budget` pivots when it is primal infeasible.
  // Returns false (result untouched) when the repair stalls and the caller
  // must start over.
  bool solve_warm(LpResult* result, LpBasis* basis_out, long dual_budget);
  // Phase 1 from a fresh build: primal simplex iterations on the sum of
  // the artificials until no column prices out.
  void run_phase1(LpResult* result, LpBasis* basis_out);
  // Reports the current (feasible) basis: kFeasible, its point and basis.
  void finish_feasible(LpResult* result, LpBasis* basis_out) const;
  void extract_solution(LpResult* out) const;
  void extract_basis(LpBasis* out) const;

  const LpModel& model_;

  int n_ = 0;      // structural variables
  int m_ = 0;      // rows
  int cols_ = 0;   // n + 2m
  std::vector<double> tab_;     // m x cols, row-major: B^-1 * A
  std::vector<double> dcost_;   // phase-1 reduced costs, length cols
  std::vector<double> lo_, up_;
  std::vector<Status> status_;
  std::vector<int> basis_;      // basis_[r] = column basic in row r
  std::vector<double> xb_;      // values of basic variables by row
  long iters_ = 0;
  long install_pivots_ = 0;
  bool built_ = false;          // tableau holds a basis of this model
  std::size_t built_nonzeros_ = 0;
};

void Simplex::build() {
  n_ = model_.variable_count();
  m_ = model_.constraint_count();
  cols_ = n_ + 2 * m_;
  tab_.assign(idx(m_) * idx(cols_), 0.0);
  lo_.assign(idx(cols_), 0.0);
  up_.assign(idx(cols_), kLpInfinity);
  status_.assign(idx(cols_), Status::kAtLower);

  for (int j = 0; j < n_; ++j) {
    lo_[idx(j)] = model_.lower_bound(j);
    up_[idx(j)] = model_.upper_bound(j);
    if (lo_[idx(j)] > -kLpInfinity) {
      status_[idx(j)] = Status::kAtLower;
    } else if (up_[idx(j)] < kLpInfinity) {
      status_[idx(j)] = Status::kAtUpper;
    } else {
      status_[idx(j)] = Status::kFreeZero;
    }
  }
  // Slack for row r is column n_+r: row becomes  a'x + s = rhs.
  for (int r = 0; r < m_; ++r) {
    const int s = n_ + r;
    switch (model_.row(r).sense) {
      case RowSense::kLessEqual:
        lo_[idx(s)] = 0.0;
        up_[idx(s)] = kLpInfinity;
        break;
      case RowSense::kGreaterEqual:
        lo_[idx(s)] = -kLpInfinity;
        up_[idx(s)] = 0.0;
        status_[idx(s)] = Status::kAtUpper;
        break;
      case RowSense::kEqual:
        lo_[idx(s)] = up_[idx(s)] = 0.0;
        break;
    }
  }

  // Fill structural + slack coefficients, then pick artificial signs so the
  // initial basis (the artificials) is feasible: value = |residual|.
  for (int r = 0; r < m_; ++r) {
    for (const LpTerm& t : model_.row(r).terms) t_at(r, t.var) += t.coef;
    t_at(r, n_ + r) = 1.0;
  }
  basis_.assign(idx(m_), -1);
  xb_.assign(idx(m_), 0.0);
  for (int r = 0; r < m_; ++r) {
    // The terms are merged and sorted by variable: the same nonzeros in
    // the same order as a scan over the tableau row. The slack starts at
    // zero, so it contributes nothing.
    const LpModel::Row& row = model_.row(r);
    double residual = row.rhs;
    for (const LpTerm& t : row.terms) {
      if (t.coef != 0.0) residual -= t.coef * nonbasic_value(t.var);
    }
    const int a = n_ + m_ + r;
    lo_[idx(a)] = 0.0;
    up_[idx(a)] = kLpInfinity;
    const double sign = residual < 0.0 ? -1.0 : 1.0;
    t_at(r, a) = sign;
    if (sign < 0.0) {
      // Normalize so the basic (artificial) column is +1 in its row.
      for (int j = 0; j < cols_; ++j) t_at(r, j) = -t_at(r, j);
    }
    basis_[idx(r)] = a;
    status_[idx(a)] = Status::kBasic;
    xb_[idx(r)] = std::abs(residual);
  }
  built_ = true;
  built_nonzeros_ = model_.nonzero_count();
}

void Simplex::refresh_bounds() {
  for (int j = 0; j < n_; ++j) {
    const double lo = model_.lower_bound(j);
    const double up = model_.upper_bound(j);
    if (lo == lo_[idx(j)] && up == up_[idx(j)]) continue;
    if (status_[idx(j)] == Status::kBasic) {
      lo_[idx(j)] = lo;
      up_[idx(j)] = up;
      continue;
    }
    const double old_val = nonbasic_value(j);
    const LpVarStatus keep =
        status_[idx(j)] == Status::kAtUpper    ? LpVarStatus::kAtUpper
        : status_[idx(j)] == Status::kFreeZero ? LpVarStatus::kFree
                                               : LpVarStatus::kAtLower;
    lo_[idx(j)] = lo;
    up_[idx(j)] = up;
    status_[idx(j)] = status_on_bounds(j, keep);
    const double delta = nonbasic_value(j) - old_val;
    if (delta != 0.0) shift_nonbasic(j, delta);
  }
}

Simplex::Status Simplex::status_on_bounds(int j, LpVarStatus want) const {
  const bool has_lo = lo_[idx(j)] > -kLpInfinity;
  const bool has_up = up_[idx(j)] < kLpInfinity;
  switch (want) {
    case LpVarStatus::kAtUpper:
      return has_up ? Status::kAtUpper
                    : (has_lo ? Status::kAtLower : Status::kFreeZero);
    case LpVarStatus::kFree:
      return (!has_lo && !has_up)
                 ? Status::kFreeZero
                 : (has_lo ? Status::kAtLower : Status::kAtUpper);
    case LpVarStatus::kAtLower:
    case LpVarStatus::kBasic:
    default:
      return has_lo ? Status::kAtLower
                    : (has_up ? Status::kAtUpper : Status::kFreeZero);
  }
}

void Simplex::shift_nonbasic(int j, double delta) {
  for (int r = 0; r < m_; ++r) {
    const double w = t_at(r, j);
    if (w != 0.0) xb_[idx(r)] -= w * delta;
  }
}

double Simplex::nonbasic_value(int j) const {
  switch (status_[idx(j)]) {
    case Status::kAtLower: return lo_[idx(j)];
    case Status::kAtUpper: return up_[idx(j)];
    case Status::kFreeZero: return 0.0;
    case Status::kBasic: break;
  }
  WIMESH_ASSERT_MSG(false, "nonbasic_value called on basic variable");
  return 0.0;
}

Simplex::Pick Simplex::choose_entering(bool bland) const {
  Pick best;
  double best_score = kLpOptimalityTol;
  for (int j = 0; j < cols_; ++j) {
    const Status st = status_[idx(j)];
    if (st == Status::kBasic) continue;
    if (lo_[idx(j)] == up_[idx(j)]) continue;  // fixed, cannot move
    const double d = dcost_[idx(j)];
    int dir = 0;
    if ((st == Status::kAtLower || st == Status::kFreeZero) &&
        d < -kLpOptimalityTol) {
      dir = +1;
    } else if ((st == Status::kAtUpper || st == Status::kFreeZero) &&
               d > kLpOptimalityTol) {
      dir = -1;
    }
    if (dir == 0) continue;
    if (bland) return Pick{j, dir};  // first eligible index
    const double score = std::abs(d);
    if (score > best_score) {
      best_score = score;
      best = Pick{j, dir};
    }
  }
  return best;
}

bool Simplex::step(const Pick& pick) {
  const int q = pick.col;
  const double dir = pick.dir;

  // Maximum movement before the entering variable hits its own far bound.
  double t_limit = kLpInfinity;
  int leave_row = -1;
  bool leave_to_upper = false;
  if (lo_[idx(q)] > -kLpInfinity && up_[idx(q)] < kLpInfinity) {
    t_limit = up_[idx(q)] - lo_[idx(q)];
  }

  // Ratio test: basic variable values move by -dir * t * w_r.
  // Two passes (Harris-style): find the tightest ratio, then among rows
  // within tolerance of it choose the one with the largest pivot magnitude.
  const double tol = kLpFeasibilityTol;
  double t_min = t_limit;
  for (int r = 0; r < m_; ++r) {
    const double w = t_at(r, q);
    const double delta = -dir * w;
    if (std::abs(w) < 1e-11) continue;
    const int b = basis_[idx(r)];
    if (delta < 0.0 && lo_[idx(b)] > -kLpInfinity) {
      t_min = std::min(t_min, (xb_[idx(r)] - lo_[idx(b)] + tol) / -delta);
    } else if (delta > 0.0 && up_[idx(b)] < kLpInfinity) {
      t_min = std::min(t_min, (up_[idx(b)] - xb_[idx(r)] + tol) / delta);
    }
  }
  // Every artificial is bounded below by 0, so phase 1 is too.
  WIMESH_ASSERT_MSG(t_min < kLpInfinity,
                    "phase-1 objective cannot be unbounded");

  double best_pivot = 0.0;
  double t_leave = 0.0;
  for (int r = 0; r < m_; ++r) {
    const double w = t_at(r, q);
    const double delta = -dir * w;
    if (std::abs(w) < 1e-11) continue;
    const int b = basis_[idx(r)];
    double t_r;
    bool to_upper;
    if (delta < 0.0 && lo_[idx(b)] > -kLpInfinity) {
      t_r = (xb_[idx(r)] - lo_[idx(b)]) / -delta;
      to_upper = false;
    } else if (delta > 0.0 && up_[idx(b)] < kLpInfinity) {
      t_r = (up_[idx(b)] - xb_[idx(r)]) / delta;
      to_upper = true;
    } else {
      continue;
    }
    if (t_r <= t_min && std::abs(w) > best_pivot) {
      best_pivot = std::abs(w);
      leave_row = r;
      t_leave = std::max(t_r, 0.0);
      leave_to_upper = to_upper;
    }
  }

  const double t =
      leave_row >= 0 ? std::min(t_leave, t_limit) : std::min(t_min, t_limit);

  // Apply the movement to the basic values.
  for (int r = 0; r < m_; ++r) {
    const double w = t_at(r, q);
    if (w != 0.0) xb_[idx(r)] -= dir * t * w;
  }

  if (leave_row < 0 || (t_limit <= t_leave && t_limit < kLpInfinity)) {
    // Bound flip: the entering variable traverses to its opposite bound.
    status_[idx(q)] =
        dir > 0 ? Status::kAtUpper : Status::kAtLower;
    return t > tol;
  }

  // Pivot: q enters the basis in leave_row, the old basic leaves at the
  // bound the ratio test hit.
  const int leaving = basis_[idx(leave_row)];
  status_[idx(leaving)] =
      leave_to_upper ? Status::kAtUpper : Status::kAtLower;
  const double entering_value = nonbasic_value(q) + pick.dir * t;
  basis_[idx(leave_row)] = q;
  status_[idx(q)] = Status::kBasic;
  xb_[idx(leave_row)] = entering_value;
  // Clamp the leaving variable exactly onto its bound (it can be off by the
  // ratio-test tolerance).
  // (Value is implicit in its status; nothing stored.)

  // Gauss-Jordan update of the tableau and reduced costs around (r, q).
  pivot_tableau(leave_row, q, /*update_rhs=*/false);
  const double fd = dcost_[idx(q)];
  if (fd != 0.0) {
    for (int j = 0; j < cols_; ++j) dcost_[idx(j)] -= fd * t_at(leave_row, j);
  }
  dcost_[idx(q)] = 0.0;
  return t > tol;
}

void Simplex::pivot_tableau(int leave_row, int q, bool update_rhs) {
  const double piv = t_at(leave_row, q);
  WIMESH_ASSERT_MSG(std::abs(piv) > 1e-12, "numerically singular pivot");
  const double inv = 1.0 / piv;
  for (int j = 0; j < cols_; ++j) t_at(leave_row, j) *= inv;
  if (update_rhs) xb_[idx(leave_row)] *= inv;
  for (int r = 0; r < m_; ++r) {
    if (r == leave_row) continue;
    const double f = t_at(r, q);
    if (f == 0.0) continue;
    for (int j = 0; j < cols_; ++j) t_at(r, j) -= f * t_at(leave_row, j);
    t_at(r, q) = 0.0;  // exact zero, avoids drift
    if (update_rhs) xb_[idx(r)] -= f * xb_[idx(leave_row)];
  }
}

bool Simplex::install_warm(const LpBasis& hint) {
  const int nm = n_ + m_;
  if (static_cast<int>(hint.status.size()) != nm) return false;
  if (static_cast<int>(hint.basic.size()) != m_) return false;
  std::vector<char> hint_basic(idx(nm), 0);
  for (std::int32_t q : hint.basic) {
    if (q < 0 || q >= nm) return false;
    if (hint_basic[idx(q)] != 0) return false;
    if (hint.status[idx(q)] != LpVarStatus::kBasic) return false;
    hint_basic[idx(q)] = 1;
  }

  // Move every nonbasic hint-nonbasic column onto its hinted bound, clamped
  // to the CURRENT bounds (the hint may come from a model with different
  // bounds, e.g. the branch & bound parent). xb_ is kept consistent as the
  // rhs column B^-1 (b - N x_N) throughout.
  for (int j = 0; j < nm; ++j) {
    if (hint_basic[idx(j)] != 0 || status_[idx(j)] == Status::kBasic) continue;
    const Status want = status_on_bounds(j, hint.status[idx(j)]);
    if (want == status_[idx(j)]) continue;
    const double old_val = nonbasic_value(j);
    status_[idx(j)] = want;
    const double delta = nonbasic_value(j) - old_val;
    if (delta == 0.0) continue;
    shift_nonbasic(j, delta);
  }

  // Pivot the hinted columns that are not basic yet into the basis, each
  // into a row whose basic column is not hinted (on a fresh build: one
  // artificial per pivot). Row choice is the largest available pivot
  // magnitude; a column with no usable pivot means the hinted basis is
  // singular under the new coefficients, and the caller starts over.
  std::vector<int> displaced;  // hint-nonbasic columns pivoted out
  for (std::int32_t q : hint.basic) {
    if (status_[idx(q)] == Status::kBasic) continue;
    const double val_q = nonbasic_value(q);
    if (val_q != 0.0) {
      // Remove q's nonbasic contribution before it enters the basis.
      for (int r = 0; r < m_; ++r) {
        const double w = t_at(r, q);
        if (w != 0.0) xb_[idx(r)] += w * val_q;
      }
    }
    int best_row = -1;
    double best_piv = 1e-7;
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[idx(r)];
      if (b < nm && hint_basic[idx(b)] != 0) continue;  // row already claimed
      const double w = std::abs(t_at(r, q));
      if (w > best_piv) {
        best_piv = w;
        best_row = r;
      }
    }
    if (best_row < 0) return false;
    const int leaving = basis_[idx(best_row)];
    pivot_tableau(best_row, q, /*update_rhs=*/true);
    ++install_pivots_;
    basis_[idx(best_row)] = q;
    status_[idx(q)] = Status::kBasic;
    // The rhs pivot leaves the outgoing column at zero: an artificial
    // stays there, any other column takes its hinted bound below.
    status_[idx(leaving)] = leaving >= nm ? Status::kAtLower
                                          : Status::kFreeZero;
    if (leaving < nm) displaced.push_back(leaving);
  }
  for (const int j : displaced) {
    status_[idx(j)] = status_on_bounds(j, hint.status[idx(j)]);
    const double val = nonbasic_value(j);
    if (val != 0.0) shift_nonbasic(j, val);
  }
  return true;
}

bool Simplex::primal_feasible() const {
  const double tol = kLpFeasibilityTol;
  for (int r = 0; r < m_; ++r) {
    const int b = basis_[idx(r)];
    const double v = xb_[idx(r)];
    if (v < lo_[idx(b)] - tol || v > up_[idx(b)] + tol) return false;
  }
  return true;
}

Simplex::DualOutcome Simplex::run_dual(long max_pivots) {
  const double ftol = kLpFeasibilityTol;
  for (long pivots = 0;; ++pivots) {
    if (iters_ >= kLpMaxIterations) return DualOutcome::kIterationLimit;
    if (pivots >= max_pivots) return DualOutcome::kStalled;

    // Leaving row: the basic variable with the worst bound violation.
    int leave_row = -1;
    double worst = ftol;
    bool below = false;
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[idx(r)];
      const double v = xb_[idx(r)];
      if (lo_[idx(b)] - v > worst) {
        worst = lo_[idx(b)] - v;
        leave_row = r;
        below = true;
      }
      if (v - up_[idx(b)] > worst) {
        worst = v - up_[idx(b)];
        leave_row = r;
        below = false;
      }
    }
    if (leave_row < 0) return DualOutcome::kFeasible;

    // Entering column: every reduced cost is zero, so every dual ratio is
    // 0 and the ratio test takes the largest |alpha| among the eligible
    // columns (the first wins ties). Movement of the violated basic is
    // -alpha * d(x_j), so eligibility depends on the direction x_j can
    // move off its bound and the sign of alpha.
    int q = -1;
    double best_alpha = 0.0;
    for (int j = 0; j < cols_; ++j) {
      const Status st = status_[idx(j)];
      if (st == Status::kBasic) continue;
      if (lo_[idx(j)] == up_[idx(j)]) continue;
      const double alpha = t_at(leave_row, j);
      if (std::abs(alpha) < 1e-9) continue;
      bool eligible;
      if (below) {
        eligible = ((st == Status::kAtLower || st == Status::kFreeZero) &&
                    alpha < 0.0) ||
                   ((st == Status::kAtUpper || st == Status::kFreeZero) &&
                    alpha > 0.0);
      } else {
        eligible = ((st == Status::kAtLower || st == Status::kFreeZero) &&
                    alpha > 0.0) ||
                   ((st == Status::kAtUpper || st == Status::kFreeZero) &&
                    alpha < 0.0);
      }
      if (eligible && std::abs(alpha) > std::abs(best_alpha)) {
        q = j;
        best_alpha = alpha;
      }
    }
    // No column can absorb the violation: the violated row is a Farkas
    // certificate of primal infeasibility.
    if (q < 0) return DualOutcome::kInfeasible;

    const int leaving = basis_[idx(leave_row)];
    const double target = below ? lo_[idx(leaving)] : up_[idx(leaving)];
    const double dt = (xb_[idx(leave_row)] - target) / t_at(leave_row, q);
    for (int r = 0; r < m_; ++r) {
      const double w = t_at(r, q);
      if (w != 0.0) xb_[idx(r)] -= w * dt;
    }
    const double entering_value = nonbasic_value(q) + dt;
    status_[idx(leaving)] = below ? Status::kAtLower : Status::kAtUpper;
    basis_[idx(leave_row)] = q;
    status_[idx(q)] = Status::kBasic;
    xb_[idx(leave_row)] = entering_value;
    pivot_tableau(leave_row, q, /*update_rhs=*/false);
    ++iters_;
  }
}

void Simplex::finish_feasible(LpResult* result, LpBasis* basis_out) const {
  result->status = LpStatus::kFeasible;
  extract_solution(result);
  extract_basis(basis_out);
}

void Simplex::extract_solution(LpResult* out) const {
  out->x.assign(idx(n_), 0.0);
  for (int j = 0; j < n_; ++j) {
    if (status_[idx(j)] != Status::kBasic) out->x[idx(j)] = nonbasic_value(j);
  }
  for (int r = 0; r < m_; ++r) {
    if (basis_[idx(r)] < n_) {
      double v = xb_[idx(r)];
      // Snap to bounds within tolerance so callers see clean values.
      const double lo = lo_[idx(basis_[idx(r)])];
      const double up = up_[idx(basis_[idx(r)])];
      if (v < lo) v = lo;
      if (v > up) v = up;
      out->x[idx(basis_[idx(r)])] = v;
    }
  }
}

void Simplex::extract_basis(LpBasis* out) const {
  if (out == nullptr) return;
  out->status.clear();
  out->basic.clear();
  for (int r = 0; r < m_; ++r) {
    // An artificial still basic (redundant equality row) has no slot in the
    // exported basis; leave it empty rather than export a partial one.
    if (basis_[idx(r)] >= n_ + m_) return;
  }
  out->status.assign(idx(n_ + m_), LpVarStatus::kAtLower);
  out->basic.assign(idx(m_), -1);
  for (int j = 0; j < n_ + m_; ++j) {
    switch (status_[idx(j)]) {
      case Status::kBasic:
        out->status[idx(j)] = LpVarStatus::kBasic;
        break;
      case Status::kAtLower:
        out->status[idx(j)] = LpVarStatus::kAtLower;
        break;
      case Status::kAtUpper:
        out->status[idx(j)] = LpVarStatus::kAtUpper;
        break;
      case Status::kFreeZero:
        out->status[idx(j)] = LpVarStatus::kFree;
        break;
    }
  }
  for (int r = 0; r < m_; ++r) {
    out->basic[idx(r)] = static_cast<std::int32_t>(basis_[idx(r)]);
  }
}

bool Simplex::solve_warm(LpResult* result, LpBasis* basis_out,
                         long dual_budget) {
  // Artificials are fixed at zero so the repair can never bring one back
  // with a nonzero value.
  for (int r = 0; r < m_; ++r) up_[idx(n_ + m_ + r)] = 0.0;
  if (!primal_feasible()) {
    switch (run_dual(dual_budget)) {
      case DualOutcome::kFeasible:
        break;
      case DualOutcome::kInfeasible:
        result->status = LpStatus::kInfeasible;
        result->warm_start_used = true;
        return true;
      case DualOutcome::kIterationLimit:
        result->status = LpStatus::kIterationLimit;
        result->warm_start_used = true;
        return true;
      case DualOutcome::kStalled:
        return false;  // numerically stuck, or over budget
    }
  }
  result->warm_start_used = true;
  finish_feasible(result, basis_out);
  return true;
}

void Simplex::run_phase1(LpResult* result, LpBasis* basis_out) {
  // Reduced costs of the phase-1 objective, the sum of the artificials:
  // d_j = c_j - c_B' (B^-1 a_j). The tableau already holds B^-1 a_j, and
  // after build() every row's basic column is its artificial (cost 1).
  dcost_.assign(idx(cols_), 0.0);
  for (int r = 0; r < m_; ++r) dcost_[idx(n_ + m_ + r)] = 1.0;
  for (int r = 0; r < m_; ++r) {
    for (int j = 0; j < cols_; ++j) dcost_[idx(j)] -= t_at(r, j);
  }
  for (int r = 0; r < m_; ++r) dcost_[idx(basis_[idx(r)])] = 0.0;

  // A pivot that moves nothing is degenerate; long degenerate runs switch
  // to Bland's rule, which guarantees termination.
  int degenerate_run = 0;
  for (;;) {
    if (iters_ >= kLpMaxIterations) {
      result->status = LpStatus::kIterationLimit;
      return;
    }
    const Pick pick = choose_entering(degenerate_run > stall_limit());
    if (pick.col < 0) break;
    degenerate_run = step(pick) ? 0 : degenerate_run + 1;
    ++iters_;
  }
  // No column prices out. What the basic artificials still hold is the
  // least infeasibility (a nonbasic artificial sits at zero).
  double infeasibility = 0.0;
  for (int r = 0; r < m_; ++r) {
    if (basis_[idx(r)] >= n_ + m_) infeasibility += xb_[idx(r)];
  }
  if (infeasibility > 1e-6) {
    result->status = LpStatus::kInfeasible;
    return;
  }
  finish_feasible(result, basis_out);
}

LpResult Simplex::solve(const LpBasis* warm, LpBasis* basis_out) {
  const auto clear_basis_out = [basis_out] {
    if (basis_out == nullptr) return;
    basis_out->status.clear();
    basis_out->basic.clear();
  };
  clear_basis_out();
  if (built_) {
    WIMESH_ASSERT_MSG(model_.variable_count() == n_ &&
                          model_.constraint_count() == m_ &&
                          model_.nonzero_count() == built_nonzeros_,
                      "LpSolver model rows changed between solves");
  }
  iters_ = 0;
  install_pivots_ = 0;
  LpResult result;
  const auto finish = [&](LpResult r) {
    r.iterations = iters_;
    r.install_pivots = install_pivots_;
    return r;
  };

  // Empty domains (from branch & bound) mean immediate infeasibility.
  for (int j = 0; j < model_.variable_count(); ++j) {
    if (model_.lower_bound(j) > model_.upper_bound(j)) {
      result.status = LpStatus::kInfeasible;
      return finish(std::move(result));
    }
  }

  // Warm path: install the hinted basis and finish from it (solve_warm);
  // otherwise fall back to a cold start (phase 1). A dual repair is
  // capped: with no objective every dual step is degenerate, and the
  // repair can cycle while still moving basic values. A live tableau is
  // repaired in place first. The in-place attempt is redone from a fresh
  // build when its repair needs more pivots than a fresh install costs
  // (m), or when its point fails the model's own feasibility check.
  const bool hinted = warm != nullptr && !warm->empty();
  if (hinted && built_) {
    refresh_bounds();
    if (install_warm(*warm) && solve_warm(&result, basis_out, m_)) {
      if (result.status != LpStatus::kFeasible ||
          model_.max_violation(result.x) <= kLpFeasibilityTol) {
        return finish(std::move(result));
      }
    }
    result = LpResult{};
    clear_basis_out();
  }
  if (hinted) {
    build();
    if (install_warm(*warm) &&
        solve_warm(&result, basis_out, stall_limit())) {
      return finish(std::move(result));
    }
  }
  build();
  run_phase1(&result, basis_out);
  return finish(std::move(result));
}

}  // namespace detail

LpSolver::LpSolver(const LpModel& model)
    : simplex_(std::make_unique<detail::Simplex>(model)) {}

LpSolver::~LpSolver() = default;

LpResult LpSolver::solve(const LpBasis* warm_start, LpBasis* basis_out) {
  return simplex_->solve(warm_start, basis_out);
}

LpResult solve_lp(const LpModel& model, const LpBasis* warm_start,
                  LpBasis* basis_out) {
  LpSolver solver(model);
  return solver.solve(warm_start, basis_out);
}

}  // namespace wimesh
