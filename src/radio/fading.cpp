#include "wimesh/radio/fading.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "wimesh/common/rng.h"

namespace wimesh::radio {
namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kMinGainDb = -60.0;  // deep-fade floor

// Within this many dB of the floor, whether the floor clamps the exact gain
// is too close to call from the envelope alone.
constexpr double kFloorGuardDb = 3.0;
// Relative padding that covers the roundings (a few ulps each) of the
// bound arithmetic itself.
constexpr double kBoundPad = 1e-12;

// 1/(2n)! with alternating signs: the even Taylor series of cos to degree
// 22. Every factorial up to 22! is exact in a double.
constexpr std::array<double, 12> kCosTaylor = [] {
  std::array<double, 12> c{};
  double factorial = 1.0;
  for (int n = 0; n < 12; ++n) {
    if (n > 0) factorial *= static_cast<double>((2 * n - 1) * (2 * n));
    c[static_cast<std::size_t>(n)] = (n % 2 == 0 ? 1.0 : -1.0) / factorial;
  }
  return c;
}();

}  // namespace

std::uint64_t pair_stream_key(NodeId a, NodeId b) {
  const auto lo = static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(std::min(a, b)));
  const auto hi = static_cast<std::uint64_t>(
      static_cast<std::uint32_t>(std::max(a, b)));
  return (hi << 32) | lo;
}

std::size_t FadingConfig::bank_size() const {
  return static_cast<std::size_t>(std::max(oscillators, 1));
}

void append_pair_bank(std::uint64_t root_seed, const FadingConfig& config,
                      NodeId a, NodeId b, std::vector<JakesOscillator>& out) {
  if (!config.enabled()) return;
  // The seed depends only on (root seed, pair), never on how many pairs
  // were drawn before, so draw order cannot change results.
  Rng rng(Rng::derive_stream(root_seed, pair_stream_key(a, b)));
  const std::size_t m = config.bank_size();
  for (std::size_t k = 0; k < m; ++k) {
    JakesOscillator osc;
    // Random arrival angle gives each oscillator its Doppler shift; the
    // ensemble approximates the Jakes U-shaped spectrum.
    const double arrival = rng.uniform(0.0, 2.0 * kPi);
    osc.omega = 2.0 * kPi * config.doppler_hz * std::cos(arrival);
    osc.phase_i = rng.uniform(0.0, 2.0 * kPi);
    osc.phase_q = rng.uniform(0.0, 2.0 * kPi);
    out.push_back(osc);
  }
}

double jakes_gain_db(std::span<const JakesOscillator> bank, SimTime t) {
  const double ts = t.to_seconds();
  double in_phase = 0.0;
  double quadrature = 0.0;
  for (const JakesOscillator& osc : bank) {
    in_phase += std::cos(osc.omega * ts + osc.phase_i);
    quadrature += std::cos(osc.omega * ts + osc.phase_q);
  }
  // sqrt(1/M): unit mean envelope power.
  const double scale = std::sqrt(1.0 / static_cast<double>(bank.size()));
  in_phase *= scale;
  quadrature *= scale;
  // E[i^2 + q^2] = 1, so the envelope power is already the linear gain.
  const double power = in_phase * in_phase + quadrature * quadrature;
  if (power <= 0.0) return kMinGainDb;
  return std::max(10.0 * std::log10(power), kMinGainDb);
}

double pair_gain_db(std::uint64_t root_seed, const FadingConfig& config,
                    NodeId a, NodeId b, SimTime t) {
  if (!config.enabled()) return 0.0;
  std::vector<JakesOscillator> bank;
  bank.reserve(config.bank_size());
  append_pair_bank(root_seed, config, a, b, bank);
  return jakes_gain_db(bank, t);
}

double poly_cos(double x) {
  constexpr double kInvTwoPi = 0x1.45f306dc9c883p-3;
  // 2*pi = kTwoPiHi + kTwoPiLo, kTwoPiHi to 33 significant bits: k *
  // kTwoPiHi is exact for |k| < 2^20, i.e. |x| up to about 6.5e6, and
  // x - k * kTwoPiHi is exact besides (Sterbenz).
  constexpr double kTwoPiHi = 0x1.921fb544p+2;
  constexpr double kTwoPiLo = 0x1.0b4611a626331p-32;
  // Adding and subtracting 1.5 * 2^52 rounds to the nearest integer.
  constexpr double kRoundToInt = 0x1.8p52;
  const double k = (x * kInvTwoPi + kRoundToInt) - kRoundToInt;
  const double r = (x - k * kTwoPiHi) - k * kTwoPiLo;  // |r| <= pi
  // Estrin's scheme in r^2: short dependency chains. The truncation error
  // is below pi^24 / 24! ~ 1.4e-12.
  const auto& c = kCosTaylor;
  const double r2 = r * r;
  const double r4 = r2 * r2;
  const double r8 = r4 * r4;
  const double p0 = (c[0] + c[1] * r2) + r4 * (c[2] + c[3] * r2);
  const double p1 = (c[4] + c[5] * r2) + r4 * (c[6] + c[7] * r2);
  const double p2 = (c[8] + c[9] * r2) + r4 * (c[10] + c[11] * r2);
  return p0 + r8 * (p1 + r8 * p2);
}

GainThreshold::GainThreshold(double mean_dbm, double threshold_dbm,
                             std::size_t bank_size)
    // Undecided until shown otherwise: nothing reaches +inf or falls
    // below 0.
    : above_sq_(std::numeric_limits<double>::infinity()), below_sq_(0.0) {
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  // The gain the power needs, and a dB slack that covers the exact path's
  // roundings: the scaling and squaring, log10, and the addition of mean.
  const double gap_db = threshold_dbm - mean_dbm;
  const double slack_db =
      1e-9 + 1e-12 * (std::fabs(mean_dbm) + std::fabs(threshold_dbm));
  if (!std::isfinite(gap_db) || !std::isfinite(slack_db)) return;
  if (gap_db < kMinGainDb - kFloorGuardDb) {
    above_sq_ = 0.0;  // the floor alone clears the threshold
    return;
  }
  if (gap_db <= kMinGainDb + kFloorGuardDb) return;

  // The gain is 10 log10(r^2 / M) for the unscaled envelope r = |(sum of
  // cos, sum of cos)|, so r = sqrt(M * 10^(dB/10)) meets a gain of dB.
  const double m = static_cast<double>(bank_size);
  const auto envelope = [m](double db) {
    return std::sqrt(m * std::pow(10.0, db / 10.0));
  };
  // Per component, the polynomial and exact sums differ by at most M
  // cosine errors plus the roundings of both sums (terms and partial sums
  // stay within M); the envelope by sqrt(2) times that.
  const double envelope_err =
      std::sqrt(2.0) * m * (kPolyCosErrorBound + 4.0 * m * kEps);
  const double hi =
      envelope(gap_db + slack_db) * (1.0 + kBoundPad) + envelope_err;
  above_sq_ = hi * hi * (1.0 + kBoundPad);
  const double lo =
      envelope(gap_db - slack_db) * (1.0 - kBoundPad) - envelope_err;
  below_sq_ = lo > 0.0 ? lo * lo * (1.0 - kBoundPad) : 0.0;
}

Verdict GainThreshold::decide(std::span<const JakesOscillator> bank,
                              SimTime t) const {
  // Chunks of arguments, then a branch-free cosine pass the compiler can
  // vectorize, then the sums.
  constexpr std::size_t kChunk = 8;
  const double ts = t.to_seconds();
  double in_phase = 0.0;
  double quadrature = 0.0;
  std::array<double, 2 * kChunk> x;
  for (std::size_t start = 0; start < bank.size(); start += kChunk) {
    const std::size_t n = std::min(kChunk, bank.size() - start);
    bool far = false;
    for (std::size_t k = 0; k < n; ++k) {
      const JakesOscillator& osc = bank[start + k];
      x[2 * k] = osc.omega * ts + osc.phase_i;
      x[2 * k + 1] = osc.omega * ts + osc.phase_q;
      far |= !(std::fabs(x[2 * k]) <= kPolyCosGuard) ||
             !(std::fabs(x[2 * k + 1]) <= kPolyCosGuard);
    }
    if (far) return Verdict::kUndecided;
    for (std::size_t j = 0; j < 2 * n; ++j) x[j] = poly_cos(x[j]);
    for (std::size_t k = 0; k < n; ++k) {
      in_phase += x[2 * k];
      quadrature += x[2 * k + 1];
    }
  }
  const double power = in_phase * in_phase + quadrature * quadrature;
  if (power >= above_sq_) return Verdict::kAbove;
  if (power < below_sq_) return Verdict::kBelow;
  return Verdict::kUndecided;
}

}  // namespace wimesh::radio
