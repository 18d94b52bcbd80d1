// Delay measurement between two waveforms carrying the same bit pattern.
//
// Pairs up the 50 %-threshold crossings of a reference and an output trace
// in order of occurrence (same data pattern => same edge sequence) and
// reports the statistics of the per-edge delays. Pairing by order rather
// than by proximity makes the measurement immune to pipeline latencies
// larger than one unit interval, which the 7-stage prototype easily has.
// The waveform entry points extract both traces' edges and call their
// edge halves (measure_delay_edges, phase_delay_edges), which many-device
// measurements call directly: the stimulus edges are extracted once and
// each device's edges come from core::lane_edges (core/batch.h).
#pragma once

#include <cstddef>
#include <vector>

#include "signal/edges.h"
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
};

/// Throws std::invalid_argument, naming `caller` and the field, for a
/// non-finite threshold_v, hysteresis_v or settle_ps (a negative
/// settle_ps is no settle window). Every entry point that takes these
/// options calls it up front.
void check_options(const DelayMeterOptions& opt, const char* caller);

/// The threshold crossings of `wf` that measure_delay() pairs: `opt`'s
/// threshold and hysteresis, from t0 + settle_ps on — the EdgeSink(opt)
/// (measure/sinks.h) fed the whole waveform, as core::lane_edges() feeds
/// one per device. Rejects non-finite options (check_options).
std::vector<sig::Edge> delay_edges(const sig::Waveform& wf,
                                   const DelayMeterOptions& opt = {});

/// Mean/spread of the output's delay relative to the reference:
/// measure_delay_edges() of both traces' delay_edges().
DelayMeasurement measure_delay(const sig::Waveform& reference,
                               const sig::Waveform& output,
                               const DelayMeterOptions& opt = {});

/// Delay between two time-ordered edge sequences of the same data
/// pattern. Either may miss a few leading edges (the output's latency
/// shifts which edges fall inside the settle window); the front trim
/// with the tightest delay spread wins, and the common span (after
/// polarity alignment) is used. Throws std::runtime_error if either
/// sequence is empty or no trim aligns them.
DelayMeasurement measure_delay_edges(const std::vector<sig::Edge>& reference,
                                     const std::vector<sig::Edge>& output);

/// Phase-based delay for PERIODIC stimuli (clocks), where order-based
/// pairing is ambiguous: every alignment of evenly spaced edges looks
/// equally good. Returns the output's crossing-grid phase minus the
/// reference's, wrapped into [0, ui_ps). Absolute latency is only known
/// modulo the UI, but differences between settings — which is what range
/// and transfer-curve measurements need — unwrap correctly as long as
/// each step moves the delay by less than half a UI. Rejects non-finite
/// options like measure_delay, and a `ui_ps` that is not finite and > 0:
/// phase_delay_edges() of both traces' delay_edges().
double measure_phase_delay(const sig::Waveform& reference,
                           const sig::Waveform& output, double ui_ps,
                           const DelayMeterOptions& opt = {});

/// The edge half of measure_phase_delay(). Throws std::invalid_argument
/// unless ui_ps is finite and > 0, and std::runtime_error if either
/// sequence is empty.
double phase_delay_edges(const std::vector<sig::Edge>& reference,
                         const std::vector<sig::Edge>& output, double ui_ps);

/// Wraps a delay difference into [-ui/2, ui/2).
double wrap_delay(double delta_ps, double ui_ps);

}  // namespace gdelay::meas
