// Primitive behavioral elements: filters, limiters, delay.
//
// These are the building blocks the buffer models (buffer.h) are composed
// from. Each one models a single first-order physical mechanism:
//
//   SinglePoleFilter  finite bandwidth of an amplifier stage
//   SlewRateLimiter   finite output-stage slew rate — THE mechanism behind
//                     the paper's amplitude-dependent delay (Fig. 4/5)
//   TanhLimiter       differential-pair soft saturation
//   FractionalDelay   ideal transport delay (transmission-line core)
#pragma once

#include <algorithm>
#include <vector>

#include "analog/element.h"
#include "backend/backend.h"

namespace gdelay::analog {

/// First-order low-pass, y' = 2*pi*f3dB (x - y).
///
/// Runs through the backend's one_pole kernel, so any partition of a
/// stream into blocks gives the same bytes.
class SinglePoleFilter {
 public:
  explicit SinglePoleFilter(double f3db_ghz);
  void reset() { st_ = {}; }
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) {
    solo_block(this, in, out, n, dt_ps);
  }
  sig::Waveform process(const sig::Waveform& in) {
    return run_blocked(*this, in);
  }
  /// The lane pass (see element.h): `w` filters, one per interleaved
  /// stream; process_block() is the w == 1 call.
  static void process_lanes(SinglePoleFilter* const* f, std::size_t w,
                            const double* in, double* out, std::size_t n,
                            double dt_ps);
  /// Time constant tau = 1/(2*pi*f3dB) in ps.
  double tau_ps() const;

 private:
  double alpha_for(double dt_ps);

  double f3db_;
  backend::OnePoleState st_;
  // dt-keyed coefficient cache for the block path; re-derived whenever a
  // block arrives with a different dt, so mixed-dt use stays correct.
  double blk_dt_ = 0.0;
  double blk_alpha_ = 0.0;
};

/// Output may move at most `slew_v_per_ps` volts per picosecond. With a
/// nonzero `tau_lin_ps` the element behaves like a real output stage:
/// linear first-order settling (time constant tau_lin) for small errors,
/// slew-limited only once the error exceeds S * tau_lin. The linear
/// region provides the restoring force that keeps a heavily compressed
/// stage centred (without it, duty-cycle noise makes the output random-
/// walk into a rail and drop transitions).
/// `leak_tau_ps` adds the stage's finite output conductance: a linear
/// pull toward the target that acts even while slew-limited. Without it a
/// stage that never completes its excursion (deep compression at high
/// rates) integrates noise into an unbounded duty-cycle random walk.
class SlewRateLimiter {
 public:
  explicit SlewRateLimiter(double slew_v_per_ps, double tau_lin_ps = 0.0,
                           double leak_tau_ps = 0.0);
  void reset() { st_ = {}; }
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) {
    solo_block(this, in, out, n, dt_ps);
  }
  sig::Waveform process(const sig::Waveform& in) {
    return run_blocked(*this, in);
  }
  static void process_lanes(SlewRateLimiter* const* l, std::size_t w,
                            const double* in, double* out, std::size_t n,
                            double dt_ps);

 private:
  // VariableGainBuffer fuses this limiter's recursion into its droop
  // tail, so its pass hands the coefficient and state PODs (the backend
  // kernel types) to the vga_tail kernel directly.
  friend class VariableGainBuffer;

  /// (Re)derives the dt-dependent coefficients in blk_.
  void prime(double dt_ps);

  double slew_;
  double tau_lin_;
  double leak_tau_;
  backend::SlewState st_;
  double blk_dt_ = 0.0;
  backend::SlewCoeffs blk_;
};

/// y = vsat * tanh(gain * x / vsat): linear gain for small signals,
/// saturating at +/- vsat.
class TanhLimiter {
 public:
  TanhLimiter(double gain, double vsat_v);
  void reset() {}
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) {
    solo_block(this, in, out, n, dt_ps);
  }
  sig::Waveform process(const sig::Waveform& in) {
    return run_blocked(*this, in);
  }
  static void process_lanes(TanhLimiter* const* l, std::size_t w,
                            const double* in, double* out, std::size_t n,
                            double dt_ps);

 private:
  double gain_;
  double vsat_;
};

/// Ideal transport delay with sub-sample (linear interpolation) precision.
/// Models the lossless core of a controlled-length PCB trace. A mid-run
/// sample-rate change re-derives the ring buffer by resampling the stored
/// history onto the new grid, so the line's charge survives the switch.
class FractionalDelay {
 public:
  explicit FractionalDelay(double delay_ps);
  void reset();
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps);
  sig::Waveform process(const sig::Waveform& in) {
    return run_blocked(*this, in);
  }
  double delay_ps() const { return delay_; }

 private:
  /// (Re)builds the ring for `dt_ps` — charged with `vin` on first use,
  /// resampled from the existing history on a dt change.
  void ensure_grid(double dt_ps, double vin);

  double delay_;
  std::vector<double> hist_;  // ring buffer
  std::size_t head_ = 0;
  double dt_cached_ = 0.0;
};

}  // namespace gdelay::analog
