// Unit discipline for the whole library.
//
// All quantities are plain `double`s in a single canonical unit per
// dimension; the helpers below exist so call sites read unambiguously.
//
//   time        -> picoseconds (ps)
//   voltage     -> volts (V), differential unless stated otherwise
//   frequency   -> gigahertz (GHz)
//   data rate   -> gigabits per second (Gbps)
//   slew rate   -> volts per picosecond (V/ps)
//
// With these choices 1 GHz corresponds to a period of 1000 ps and a
// 6.4 Gbps NRZ stream has a 156.25 ps unit interval, matching the numbers
// quoted throughout the paper.
#pragma once

#include "util/fastmath.h"

namespace gdelay::util {

inline constexpr double kPi = 3.14159265358979323846;

/// Period (ps) of a periodic signal at `f_ghz` gigahertz.
constexpr double period_ps(double f_ghz) { return 1000.0 / f_ghz; }
/// Frequency (GHz) of a periodic signal with period `t_ps` picoseconds.
constexpr double freq_ghz(double t_ps) { return 1000.0 / t_ps; }

/// Unit interval (ps) of an NRZ stream at `rate_gbps` gigabits per second.
constexpr double unit_interval_ps(double rate_gbps) {
  return 1000.0 / rate_gbps;
}

/// Millivolts expressed in volts.
constexpr double mv(double millivolts) { return millivolts / 1000.0; }

/// Convert an amplitude loss in dB (positive number = attenuation) to a
/// linear voltage factor in (0, 1].
inline double db_loss_to_factor(double loss_db) {
  // 10^y as det_exp(y * ln 10): keeps attenuator factors — and with them
  // every simulated amplitude — independent of the host libm's pow.
  constexpr double kLn10 = 2.30258509299404568402;
  return det_exp(-loss_db / 20.0 * kLn10);
}

/// Peak-to-peak value of an (instrument-style) Gaussian source quoted as
/// "X volts peak-to-peak": bench signal generators bound their Gaussian
/// output at roughly +/-3 sigma, so pp ~= 6 sigma. Used when reproducing
/// the paper's "900 mV (peak-to-peak) Gaussian voltage noise".
constexpr double gaussian_pp_to_sigma(double pp) { return pp / 6.0; }

}  // namespace gdelay::util
