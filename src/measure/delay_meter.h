// Delay measurement between two waveforms carrying the same bit pattern.
//
// Pairs up the 50 %-threshold crossings of a reference and an output trace
// in order of occurrence (same data pattern => same edge sequence) and
// reports the statistics of the per-edge delays. Pairing by order rather
// than by proximity makes the measurement immune to pipeline latencies
// larger than one unit interval, which the 7-stage prototype easily has.
#pragma once

#include <cstddef>
#include <vector>

#include "signal/waveform.h"

namespace gdelay::meas {

struct DelayMeasurement {
  std::size_t n_edges = 0;
  double mean_ps = 0.0;
  double stddev_ps = 0.0;
  double min_ps = 0.0;
  double max_ps = 0.0;
};

struct DelayMeterOptions {
  double threshold_v = 0.0;
  /// Re-arm band around the threshold; suppresses noise chatter near the
  /// decision level (both traces carry additive stage noise).
  double hysteresis_v = 0.1;
  /// Edges earlier than t0 + settle in either trace are ignored.
  double settle_ps = 400.0;
  /// If set, a differing transition count is an error instead of being
  /// resolved by the spread-minimizing alignment. Off by default because
  /// the output's latency shifts which edges fall inside the settle window.
  bool require_equal_counts = false;
};

/// Throws std::invalid_argument, naming `caller` and the field, for a
/// non-finite threshold_v, hysteresis_v or settle_ps (a negative
/// settle_ps is no settle window). Every entry point that takes these
/// options calls it up front.
void check_options(const DelayMeterOptions& opt, const char* caller);

/// Mean/spread of the output's delay relative to the reference.
/// Rejects non-finite options (check_options).
/// Throws std::runtime_error if the edge sequences cannot be aligned
/// (different transition counts after settling) and `require_equal_counts`
/// is set; otherwise the common prefix (after polarity alignment) is used.
DelayMeasurement measure_delay(const sig::Waveform& reference,
                               const sig::Waveform& output,
                               const DelayMeterOptions& opt = {});

/// Phase-based delay for PERIODIC stimuli (clocks), where order-based
/// pairing is ambiguous: every alignment of evenly spaced edges looks
/// equally good. Returns the output's crossing-grid phase minus the
/// reference's, wrapped into [0, ui_ps). Absolute latency is only known
/// modulo the UI, but differences between settings — which is what range
/// and transfer-curve measurements need — unwrap correctly as long as
/// each step moves the delay by less than half a UI. Rejects non-finite
/// options like measure_delay.
double measure_phase_delay(const sig::Waveform& reference,
                           const sig::Waveform& output, double ui_ps,
                           const DelayMeterOptions& opt = {});

/// Wraps a delay difference into [-ui/2, ui/2).
double wrap_delay(double delta_ps, double ui_ps);

/// Delay between two pre-extracted, time-ordered edge sequences with
/// polarities. Exposed for reuse by the calibration engine.
DelayMeasurement measure_delay_edges(const std::vector<double>& ref_times,
                                     const std::vector<bool>& ref_rising,
                                     const std::vector<double>& out_times,
                                     const std::vector<bool>& out_rising,
                                     bool require_equal_counts = true);

}  // namespace gdelay::meas
