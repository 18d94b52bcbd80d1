// Jitter injection (Section 5): AC-couple a Gaussian voltage-noise source
// onto the fine-delay control voltage. Because Vctrl sets delay, voltage
// noise converts directly to timing jitter on the transmitted signal —
// the paper demonstrates turning a 900 mVpp noise source into ~41 ps of
// added jitter on a 3.2 Gbps stream (Figs. 16, 17).
//
// Each block runs as a chain of whole-block passes: noise source, scale
// plus sinusoidal term, AC coupler, clamp to the Vctrl range, then the
// fine line with that per-sample Vctrl array. The line maps each Vctrl
// sample to its stages' half-swing A(Vctrl) once and drives all of its
// stages with that one block.
#pragma once

#include "analog/coupling.h"
#include "core/fine_delay.h"
#include "signal/waveform.h"
#include "util/rng.h"

namespace gdelay::core {

struct JitterInjectorConfig {
  FineDelayConfig line{};
  /// DC operating point of Vctrl; defaults (<0) to mid-range, where the
  /// Fig. 7 characteristic is steepest and most linear. The constructor
  /// rejects NaN and values above line.stage.vctrl_max_v.
  double vctrl_dc_v = -1.0;
  /// External noise generator amplitude, quoted peak-to-peak (pp ~ 6 sigma).
  double noise_pp_v = 0.9;
  /// Noise generator bandwidth. Kept well below 1/latency of the
  /// delay line so all four stages see the same instantaneous Vctrl
  /// (full voltage-to-time conversion).
  double noise_bandwidth_ghz = 0.08;
  /// AC-coupling high-pass corner between generator and Vctrl node.
  double coupling_hp_ghz = 0.005;
  /// Sinusoidal (periodic) jitter injection: amplitude of the sine fed
  /// into Vctrl (pk-pk volts) and its frequency. The classic SJ stimulus
  /// for jitter-tolerance templates (cf. the paper's reference [1],
  /// Shimanouchi ITC'03); combine freely with the Gaussian source.
  double sj_pp_v = 0.0;
  double sj_freq_ghz = 0.01;
};

class JitterInjector {
 public:
  JitterInjector(const JitterInjectorConfig& cfg, util::Rng rng);

  const JitterInjectorConfig& config() const { return cfg_; }
  FineDelayLine& line() { return line_; }

  /// Changes the generator amplitude (pp); 0 disables injection.
  void set_noise_pp(double pp_v);
  double noise_pp() const { return noise_pp_; }

  /// Changes the sinusoidal (SJ) source.
  void set_sj(double pp_v, double freq_ghz);

  /// Independent deterministic noise streams (generator + line) for a
  /// cloned injector; one stream id forks both children, whose parent
  /// states already differ (see NoiseSource::fork_noise).
  void fork_noise(std::uint64_t stream) {
    line_.fork_noise(stream);
    noise_.fork_noise(stream);
  }

  void reset();
  /// Advances `n` samples: renders the block's Vctrl from the sources,
  /// then runs the line with it. Byte-identical at any chunking, which
  /// lets the injector serve as a streaming Pipeline stage. In-place
  /// (in == out) allowed.
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps);
  /// Runs a waveform through a freshly reset injector (block path).
  sig::Waveform process(const sig::Waveform& in);

 private:
  JitterInjectorConfig cfg_;
  double vctrl_dc_;
  double noise_pp_;
  double sj_pp_;
  double sj_freq_;
  double sj_t_ps_ = 0.0;
  FineDelayLine line_;
  analog::NoiseSource noise_;
  analog::AcCoupler coupler_;
};

}  // namespace gdelay::core
