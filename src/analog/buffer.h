// Buffer models: the variable-gain (variable-amplitude) buffer at the core
// of the paper's fine-delay technique, and the limiting buffer used for
// amplitude recovery, fanout and muxing.
//
// The VariableGainBuffer signal path is
//
//   vin -> [tanh input pair] -> [single-pole bandwidth] -> [+noise]
//       -> [limiting output stage scaled to A(Vctrl)] -> [slew limiter]
//
// Because the output stage slews at a fixed rate S from rail -A toward
// +A, the 50 % (zero) crossing lands A/S after the internal switching
// instant: programmed amplitude directly sets propagation delay. This is
// the timing/amplitude dependency the paper observed (~10 ps per stage
// over the 100-750 mV amplitude range) and then exploited. Nothing in
// this model stores a delay value — the effect is emergent.
//
// A stage holds one programmed Vctrl. A Vctrl that moves during a run
// reaches it already mapped to the half-swing A(Vctrl): the fine line
// maps each sample once for all of its stages.
#pragma once

#include "analog/coupling.h"
#include "analog/element.h"
#include "analog/primitives.h"
#include "util/rng.h"

namespace gdelay::core {
class FineDelayLine;
}

namespace gdelay::analog {

struct VgaBufferConfig {
  double input_gain = 2.5;       ///< Small-signal gain of the input pair.
  double input_sat_v = 0.5;      ///< Input-pair saturation (half-swing, V).
  double f3db_ghz = 9.0;         ///< Stage bandwidth ("12 Gb/s-class" part).
  double output_gain = 2.0;      ///< Limiting sharpness of the output stage.
  double output_ref_v = 0.2;     ///< Internal level treated as "full drive".
  double slew_v_per_ps = 0.005;  ///< Output slew rate S (V/ps, differential).
  /// Small-signal settling time constant of the output stage; errors
  /// below slew * tau_lin settle linearly instead of slewing.
  double slew_tau_lin_ps = 20.0;
  /// Output-conductance leak toward the target (acts during slewing);
  /// bounds the duty-cycle wander of a compressed stage.
  double slew_leak_tau_ps = 300.0;
  /// Bias droop: the output stage's tail current sags in proportion to
  /// the fraction of time it spends slew-limited (switching activity),
  /// shrinking the realized amplitude. Self-regulating: a setting too
  /// large to complete within the signal period droops until it fits, so
  /// the output stays clean while the control authority -- the amplitude
  /// span and with it the delay range -- compresses at high rates. This
  /// is the Fig. 15 roll-off mechanism.
  double droop_frac = 0.4;
  double droop_tau_ps = 4000.0;
  double amp_min_v = 0.260;      ///< Output half-swing at Vctrl = 0.
  double amp_max_v = 0.375;      ///< Output half-swing at Vctrl = max (750 mVpp).
  double vctrl_max_v = 1.5;      ///< Control-voltage range.
  /// Gain-control soft-saturation shape factor; larger = sharper ends.
  /// Produces the slope flattening near the Vctrl extremes seen in Fig. 7.
  double ctrl_shape = 2.2;
  /// Output-network pole (package + load). Its exponential settling
  /// tail is what erodes the usable amplitude swing — and with it the
  /// delay range — as the signal rate rises (the Fig. 15 roll-off).
  double output_pole_f3db_ghz = 8.0;
  /// Band-limited additive voltage noise at the internal node (sigma) —
  /// the physical source of the circuit's added random jitter. Band
  /// limiting keeps the noise correlated across one edge, so it converts
  /// to timing jitter via the local edge slope like real amplifier noise.
  double noise_sigma_v = 0.012;
  double noise_bandwidth_ghz = 7.5;
};

class VariableGainBuffer {
 public:
  VariableGainBuffer(const VgaBufferConfig& cfg, util::Rng rng);

  /// Programmed control voltage (clamped to [0, vctrl_max] inside
  /// amplitude(), so +-Inf program the rails). May be changed between
  /// runs; a Vctrl that moves during a run reaches the stage as the
  /// per-sample half-swing of process_block(). Throws
  /// std::invalid_argument on NaN.
  void set_vctrl(double v);
  double vctrl() const { return vctrl_; }

  /// Output half-swing A(Vctrl) currently in effect (before droop).
  double amplitude() const;
  /// Current droop state in [0, 1]: fraction of recent time spent
  /// slew-limited (diagnostic).
  double droop() const { return tail_.droop; }
  /// A(v) for an arbitrary control voltage (pure function of the
  /// config); NaN for a NaN v.
  double amplitude_for(double vctrl) const;

  const VgaBufferConfig& config() const { return cfg_; }

  /// Independent deterministic noise stream for a cloned stage (see
  /// NoiseSource::fork_noise).
  void fork_noise(std::uint64_t stream) { noise_.fork_noise(stream); }

  void reset();
  /// Fixed-Vctrl block: process_block(in, nullptr, out, n, dt_ps).
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) {
    solo_block(this, in, nullptr, out, n, dt_ps);
  }
  /// `amp[i]` is the output half-swing of sample i, amplitude_for() of
  /// a control voltage that moves during the run (the jitter-injection
  /// mechanism); nullptr holds amplitude(). vctrl() is left as it was.
  /// `amp` must not alias `out`. The w == 1 call of process_lanes().
  void process_block(const double* in, const double* amp, double* out,
                     std::size_t n, double dt_ps) {
    solo_block(this, in, amp, out, n, dt_ps);
  }
  sig::Waveform process(const sig::Waveform& in) {
    return run_blocked(*this, in);
  }

  /// The lane pass (see element.h), stage-major: tanh pair, bandwidth
  /// pole and batched noise run as whole-block passes; the droop/slew
  /// recursion — whose state feeds back sample-to-sample — runs as one
  /// fused vga_tail kernel call with every dt-dependent coefficient
  /// hoisted, then the output pole. `amp` is interleaved like `in` (or
  /// nullptr).
  static void process_lanes(VariableGainBuffer* const* b, std::size_t w,
                            const double* in, const double* amp, double* out,
                            std::size_t n, double dt_ps);

 private:
  // The line leaves each stage holding the last sample of a modulated
  // block's Vctrl, unchecked: a NaN sample must not throw mid-run.
  friend class core::FineDelayLine;

  /// Hoists the droop/slew-tail coefficients for (vctrl_, dt_ps) — every
  /// value a pure function of the config, Vctrl and dt.
  backend::VgaTailCoeffs tail_coeffs(double dt_ps);

  VgaBufferConfig cfg_;
  double vctrl_;
  double ctrl_norm_;  ///< det_tanh(ctrl_shape / 2), amplitude_for()'s divisor
  TanhLimiter input_;
  SinglePoleFilter lpf_;
  NoiseSource noise_;
  SlewRateLimiter slew_;
  SinglePoleFilter out_pole_;
  backend::VgaTailState tail_;
};

struct LimitingBufferConfig {
  double input_gain = 4.0;
  double input_sat_v = 0.5;
  double f3db_ghz = 9.0;
  double output_gain = 8.0;
  double output_ref_v = 0.2;
  double out_swing_v = 0.4;     ///< Fixed output half-swing (full logic level).
  double slew_v_per_ps = 0.08;  ///< Fast output stage.
  double noise_sigma_v = 0.012;
  double noise_bandwidth_ghz = 9.0;
};

/// Fixed-amplitude regenerating buffer: recovers full logic swing while
/// preserving input edge timing. Also models one branch of the 1:4 fanout
/// chip and the output stage of the 4:1 mux.
class LimitingBuffer {
 public:
  LimitingBuffer(const LimitingBufferConfig& cfg, util::Rng rng);

  const LimitingBufferConfig& config() const { return cfg_; }

  /// Independent deterministic noise stream for a cloned buffer.
  void fork_noise(std::uint64_t stream) { noise_.fork_noise(stream); }

  void reset();
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) {
    solo_block(this, in, out, n, dt_ps);
  }
  sig::Waveform process(const sig::Waveform& in) {
    return run_blocked(*this, in);
  }
  static void process_lanes(LimitingBuffer* const* b, std::size_t w,
                            const double* in, double* out, std::size_t n,
                            double dt_ps);

 private:
  LimitingBufferConfig cfg_;
  TanhLimiter input_;
  SinglePoleFilter lpf_;
  NoiseSource noise_;
  SlewRateLimiter slew_;
};

}  // namespace gdelay::analog
