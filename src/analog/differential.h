// Differential-pair imperfections.
//
// The library's waveforms carry the *differential* voltage, which is
// exact while the P and N legs are perfectly matched. Real boards are
// not: the two traces of each "controlled length differential pair"
// (Fig. 8) can differ in length (leg skew) and the two legs of a buffer
// in gain. DifferentialImbalance reconstructs the legs, applies the
// mismatch, and recombines:
//
//   out(t) = [gP * v(t - skew/2) + gN * v(t + skew/2)] / 2 + 2*offset_cm*cmrr
//
// Leg skew softens edges (the legs cross at different times) and
// stretches the crossing; gain mismatch plus any common-mode offset
// shifts the zero crossing, which the downstream limiter turns into
// duty-cycle distortion — both classic differential-layout defects.
#pragma once

#include "analog/element.h"
#include "analog/primitives.h"

namespace gdelay::analog {

struct DifferentialImbalanceConfig {
  /// P leg longer than N by this much (total leg-to-leg skew).
  double leg_skew_ps = 0.0;
  /// Fractional gain mismatch m: gP = 1 + m/2, gN = 1 - m/2.
  double gain_mismatch_frac = 0.0;
  /// Differential offset produced by common-mode imbalance (V).
  double offset_v = 0.0;
};

class DifferentialImbalance {
 public:
  explicit DifferentialImbalance(const DifferentialImbalanceConfig& cfg);

  const DifferentialImbalanceConfig& config() const { return cfg_; }

  void reset();
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps);
  sig::Waveform process(const sig::Waveform& in) {
    return run_blocked(*this, in);
  }

 private:
  DifferentialImbalanceConfig cfg_;
  FractionalDelay p_leg_;
  FractionalDelay n_leg_;
};

}  // namespace gdelay::analog
