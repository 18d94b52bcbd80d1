// AC coupling, attenuation and bench noise sources.
//
// `NoiseSource` + `AcCoupler` together model the paper's jitter-injection
// hookup (Section 5): an external Gaussian voltage-noise generator
// AC-coupled onto the fine-delay control voltage Vctrl.
#pragma once

#include "analog/element.h"
#include "analog/primitives.h"
#include "backend/backend.h"
#include "signal/waveform.h"
#include "util/rng.h"

namespace gdelay::analog {

/// First-order high-pass (series capacitor + termination).
class AcCoupler {
 public:
  /// `f_hp_ghz`: -3 dB high-pass corner (e.g. 0.01 = 10 MHz).
  explicit AcCoupler(double f_hp_ghz);
  void reset();
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps);
  sig::Waveform process(const sig::Waveform& in) {
    return run_blocked(*this, in);
  }

 private:
  double f_hp_;
  double x_prev_ = 0.0;
  double y_ = 0.0;
  bool first_ = true;
  double blk_dt_ = 0.0;
  double blk_a_ = 0.0;
};

/// Flat attenuation (e.g. the series measurement resistors the paper notes
/// in Fig. 13: "amplitude attenuation is due to series resistors added for
/// measurement convenience").
class Attenuator {
 public:
  explicit Attenuator(double loss_db);
  void reset() {}
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps);
  sig::Waveform process(const sig::Waveform& in) {
    return run_blocked(*this, in);
  }
  double factor() const { return factor_; }

 private:
  double factor_;
};

/// Band-limited Gaussian voltage noise generator (no signal input).
/// The output standard deviation equals `sigma_v` regardless of dt or
/// bandwidth — the internal white noise is re-scaled to compensate for
/// the power removed by the band-limiting filter.
class NoiseSource {
 public:
  NoiseSource(double sigma_v, double bandwidth_ghz, util::Rng rng);

  /// Deterministically switches to an independent noise stream derived
  /// from the current one. Copied devices share their parent's RNG
  /// state; forking each copy with a distinct `stream` restores
  /// statistically independent noise per copy while staying exactly
  /// reproducible (the parallel sweeps fork by sweep-point index).
  void fork_noise(std::uint64_t stream) { rng_ = rng_.fork(stream); }

  void reset();

  /// The next `n` noise samples, advancing n * dt_ps picoseconds, with
  /// the filter coefficients hoisted and the Gaussian draws batched. Any
  /// split of the stream into calls gives the same samples.
  void process_block(double* out, std::size_t n, double dt_ps) {
    solo_block(this, out, n, dt_ps);
  }

  /// The lane pass (see element.h): the next `n` samples of `w` sources
  /// into the interleaved `out`; process_block() is the w == 1 call.
  static void process_lanes(NoiseSource* const* src, std::size_t w,
                            double* out, std::size_t n, double dt_ps);

 private:
  /// (Re)derives the dt-dependent filter coefficients.
  void prime(double dt_ps);

  double sigma_;
  double bw_;
  util::Rng rng_;
  backend::OnePoleState st_;
  double blk_dt_ = 0.0;
  double blk_alpha_ = 0.0;
  double blk_sx_ = 0.0;
};

}  // namespace gdelay::analog
