#pragma once

// Time-correlated small-scale fading (Jakes / Clarke sum-of-sinusoids).
//
// Each unordered node pair owns an independent fading process: a bank of
// sinusoid oscillators whose arrival angles and phases are drawn once from
// an RNG stream derived from (radio seed, pair key) — the same
// derive_stream discipline wimesh::batch uses for per-run streams. The
// gain at time t is therefore a pure function of (seed, pair, t): the
// fading a link experiences never depends on evaluation order, on which
// worker thread runs the simulation, or on how many other links were
// queried first, so fading-enabled sweeps stay bit-identical for any
// --jobs value.
//
// The envelope is Rayleigh-distributed with unit mean power (0 dB average
// gain) and decorrelates over roughly 1/(2*doppler_hz) seconds — walking
// speed at 5 GHz gives a few tens of milliseconds, i.e. several TDMA
// frames, which is exactly the regime the guard-time story cares about.
//
// Banks are plain arrays of JakesOscillator owned by the caller: the
// wifi channel keeps every bank of a transmitter in one flat per-run row.
// Threshold questions ("does the power reach the carrier-sense level?")
// go through GainThreshold, which settles most of them with a polynomial
// cosine under a proven error bound and leaves the rest to jakes_gain_db.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "wimesh/common/time.h"
#include "wimesh/graph/graph.h"

namespace wimesh::radio {

// Stream key of the unordered pair {a, b}: collision-free packing of the
// two 32-bit NodeIds. Shared by the shadowing and fading stream derivation
// so a pair's randomness is addressable without any draw ordering.
std::uint64_t pair_stream_key(NodeId a, NodeId b);

struct FadingConfig {
  enum class Kind {
    kNone,   // fading layer disabled; gain is 0 dB always
    kJakes,  // Rayleigh envelope, Jakes Doppler spectrum
  };
  Kind kind = Kind::kNone;
  double doppler_hz = 5.0;  // max Doppler shift (pedestrian @ 5 GHz ~ 5-10)
  int oscillators = 8;      // sum-of-sinusoids order

  bool enabled() const { return kind != Kind::kNone; }
  // Oscillators per bank: at least one.
  std::size_t bank_size() const;
};

// One sinusoid of a pair's bank.
struct JakesOscillator {
  double omega = 0.0;  // 2*pi*doppler*cos(arrival angle), rad/s
  double phase_i = 0.0;
  double phase_q = 0.0;
};

// Appends the bank of the pair {a, b} under `root_seed` to `out`:
// config.bank_size() oscillators drawn from the pair's private stream, so
// two calls anywhere, in any order, append identical banks. Appends
// nothing when fading is disabled.
void append_pair_bank(std::uint64_t root_seed, const FadingConfig& config,
                      NodeId a, NodeId b, std::vector<JakesOscillator>& out);

// Power gain in dB of `bank` (non-empty) at virtual time t; 0 dB is the
// mean of the process. Deep fades are floored at -60 dB so the value stays
// finite.
double jakes_gain_db(std::span<const JakesOscillator> bank, SimTime t);

// jakes_gain_db of the pair {a, b}'s bank under `root_seed`; 0 when
// fading is disabled. Draws the bank on every call.
double pair_gain_db(std::uint64_t root_seed, const FadingConfig& config,
                    NodeId a, NodeId b, SimTime t);

// cos(x) by range reduction with a two-part 2*pi and an even Taylor series
// to degree 22. Within kPolyCosGuard of zero its error is below
// kPolyCosErrorBound; beyond it the value means nothing.
inline constexpr double kPolyCosGuard = 1e6;
inline constexpr double kPolyCosErrorBound = 1e-9;
double poly_cos(double x);

enum class Verdict { kBelow, kAbove, kUndecided };

// The certified test of `mean_dbm + jakes_gain_db(bank, t) >= threshold_dbm`
// for banks of `bank_size` oscillators, each side evaluated in floating
// point exactly as RadioEnvironment::rx_power_dbm does. decide() sums the
// bank with poly_cos and compares the envelope against precomputed bounds
// whose slack covers kPolyCosErrorBound per cosine and every rounding of
// the exact path, so kAbove and kBelow are never wrong. It answers
// kUndecided — and the caller evaluates the exact power — when the
// envelope falls inside that slack, when an oscillator argument leaves
// kPolyCosGuard, and always when the threshold sits within a few dB of the
// -60 dB gain floor.
class GainThreshold {
 public:
  GainThreshold(double mean_dbm, double threshold_dbm, std::size_t bank_size);

  Verdict decide(std::span<const JakesOscillator> bank, SimTime t) const;

 private:
  // Bounds on the unscaled envelope power (sum of cos)^2 + (sum of cos)^2:
  // at or above above_sq_ is surely above, below below_sq_ surely below.
  double above_sq_;
  double below_sq_;
};

}  // namespace wimesh::radio
