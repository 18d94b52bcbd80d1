// Delay calibration: turns the physical channel into a programmable
// "give me X picoseconds" instrument.
//
// The calibrator plays a reference stimulus through the channel while
// sweeping Vctrl (reproducing the Fig. 7 measurement) and while stepping
// the coarse taps (Fig. 9), then builds an invertible model:
//
//   delay(tap, vctrl) = base_latency + tap_offset[tap] + fine_curve(vctrl)
//
// `ChannelCalibration::plan()` solves that model for a requested delay,
// picks the tap, inverts the fine curve and quantizes Vctrl through the
// 12-bit DAC — the paper's programming flow.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/channel.h"
#include "core/dac.h"
#include "core/fine_delay.h"
#include "signal/waveform.h"
#include "util/curve.h"

namespace gdelay::core {

struct DelaySetting {
  int tap = 0;
  std::uint32_t dac_code = 0;
  double vctrl_v = 0.0;             ///< DAC output actually applied.
  double predicted_delay_ps = 0.0;  ///< Relative to the channel minimum.
};

struct ChannelCalibration {
  /// Fine delay relative to Vctrl = 0, measured over the control range.
  util::Curve fine_curve;
  /// Extra latency of each tap relative to tap 0 (at fixed Vctrl).
  std::array<double, 4> tap_offset_ps{};
  /// Absolute latency at tap 0, Vctrl = 0 (includes all 7 stages).
  double base_latency_ps = 0.0;
  Dac dac{12, 1.5};

  double fine_range_ps() const { return fine_curve.y_span(); }
  double total_range_ps() const {
    return tap_offset_ps.back() + fine_range_ps();
  }
  /// Worst-case delay step between adjacent DAC codes over the curve.
  double resolution_ps() const;

  /// Delay (relative to the channel minimum) predicted for a setting.
  double predicted_delay_ps(int tap, double vctrl) const;

  /// Setting realizing `relative_delay_ps` in [0, total_range]; clamps
  /// outside (+/-Inf included). Picks the coarse tap that centers the fine
  /// adjustment. Throws std::invalid_argument on NaN.
  DelaySetting plan(double relative_delay_ps) const;
};

class DelayCalibrator {
 public:
  struct Options {
    int n_vctrl_points = 17;  ///< Sweep points across [0, vctrl_max].
    /// Edges before this are ignored. Must exceed the stages' bias-
    /// droop settling (a few droop_tau) or the transient leaks into
    /// the delay statistics. Must be finite; a negative value means no
    /// settle window.
    double settle_ps = 3000.0;
  };

  DelayCalibrator() = default;
  /// Throws std::invalid_argument for a non-finite settle_ps.
  explicit DelayCalibrator(const Options& opt);

  // All measurements are clone-based: each sweep point runs on its own
  // copy of the device (they are value types), so the device under test
  // is never mutated. The clones run four to a lane group through
  // core::lane_edges (core/batch.h), groups in parallel on the global
  // thread pool, and each clone's edges are paired with the stimulus
  // edges, extracted once per call; results are bit-identical for any
  // `GDELAY_THREADS` setting. The sweep points and the curve reduction
  // (baseline subtraction, then monotonicized()) are shared by
  // measure_fine_curve() and calibrate().

  /// Fig. 7 measurement: fine delay vs Vctrl (relative to Vctrl = 0).
  util::Curve measure_fine_curve(const FineDelayLine& line,
                                 const sig::Waveform& stimulus) const;

  /// Full calibration of every channel of a board against one stimulus,
  /// one per channel in order: the same sweep on tap 0, then one run per
  /// tap at Vctrl = 0. Every channel's sweep and tap clones go into one
  /// lane list, so the whole board fills the pool (8 channels x 17
  /// clones are 34 lane groups); each result is bit-identical to
  /// calibrating the channel alone. Channels may differ in anything,
  /// their fine stage count included. The DAC is the default 12-bit,
  /// 1.5 V part. The channels' own tap/Vctrl programming is left
  /// untouched. Throws std::invalid_argument for fewer than 3 sweep
  /// points, before any channel runs.
  std::vector<ChannelCalibration> calibrate(
      std::span<const VariableDelayChannel> channels,
      const sig::Waveform& stimulus) const;
  /// The one-channel call of the board calibration.
  ChannelCalibration calibrate(const VariableDelayChannel& ch,
                               const sig::Waveform& stimulus) const;

  /// Convenience for the range studies (Figs. 12, 14, 15): delay swing
  /// between Vctrl = 0 and Vctrl = max for the given stimulus.
  double measure_fine_range(const FineDelayLine& line,
                            const sig::Waveform& stimulus) const;

  /// Range measurement for PERIODIC stimuli (the RZ-clock sweeps of
  /// Figs. 14/15), where edge-order pairing is ambiguous. Sweeps Vctrl in
  /// `n_steps` increments and accumulates phase deltas wrapped into half a
  /// UI — exact as long as each increment moves the delay by < ui/2.
  /// Throws std::invalid_argument for n_steps < 1 or a ui_ps that is not
  /// finite and > 0, before any device runs.
  double measure_fine_range_periodic(const FineDelayLine& line,
                                     const sig::Waveform& stimulus,
                                     double ui_ps, int n_steps = 8) const;

 private:
  Options opt_{};
};

}  // namespace gdelay::core
