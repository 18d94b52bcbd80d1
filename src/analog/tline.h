// Controlled-length differential transmission line.
//
// Models the coarse-delay taps of Fig. 8: an ideal transport delay
// (trace length), a frequency-flat loss factor, and an optional
// single-pole "dispersion" roll-off standing in for skin-effect and
// dielectric loss. Longer taps get proportionally more loss, which is
// why the paper's measured taps (0/33/70/95 ps) deviate a few ps from
// the ideal 0/33/66/99 — our per-tap length error models the same
// manufacturing tolerance.
#pragma once

#include "analog/element.h"
#include "analog/primitives.h"

namespace gdelay::analog {

struct TransmissionLineConfig {
  double delay_ps = 0.0;            ///< Electrical length.
  double loss_db = 0.0;             ///< Flat amplitude loss (positive = loss).
  double dispersion_f3db_ghz = 0.0; ///< 0 disables the dispersion pole.
};

class TransmissionLine {
 public:
  explicit TransmissionLine(const TransmissionLineConfig& cfg);

  const TransmissionLineConfig& config() const { return cfg_; }
  double delay_ps() const { return cfg_.delay_ps; }

  void reset();
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) {
    solo_block(this, in, out, n, dt_ps);
  }
  sig::Waveform process(const sig::Waveform& in) {
    return run_blocked(*this, in);
  }
  /// The lane pass (see element.h). The fractional-delay ring walk is
  /// per-stream (one column at a time); the dispersion poles advance
  /// together when every stream has one.
  static void process_lanes(TransmissionLine* const* t, std::size_t w,
                            const double* in, double* out, std::size_t n,
                            double dt_ps);

 private:
  TransmissionLineConfig cfg_;
  FractionalDelay delay_;
  double loss_factor_;
  // Dispersion pole allocated lazily only if enabled.
  bool has_pole_;
  SinglePoleFilter pole_;
};

/// Loss (dB) of a trace of electrical length `delay_ps` given a loss rate
/// in dB per 100 ps of length — convenient for deriving tap losses.
double trace_loss_db(double delay_ps, double db_per_100ps);

}  // namespace gdelay::analog
