// Helpers shared by the instruments: descriptive statistics, the circular
// phase estimator, the crossing options and the input checks.
#pragma once

#include <cstddef>
#include <vector>

namespace gdelay::meas {

struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  // population standard deviation
  double min = 0.0;
  double max = 0.0;
  double peak_to_peak() const { return max - min; }
};

/// Summary statistics of a sample set. Returns a zeroed Summary for empty
/// input.
Summary summarize(const std::vector<double>& xs);

/// Throws std::invalid_argument "<caller>: <field> must be finite" unless
/// `v` is finite. Every measurement entry point checks its options with
/// it up front: a NaN or infinite threshold or settle window would
/// otherwise extract no edges, or fold the lead-in, without an error.
void require_finite(double v, const char* caller, const char* field);

/// How every crossing measurement extracts its crossings: the delay
/// meter (measure_delay, delay_edges, core::lane_edges) and the jitter
/// analyzer (measure_jitter, JitterSink) each run one EdgeSink
/// (measure/sinks.h) built from these options.
struct CrossingOptions {
  double threshold_v = 0.0;
  /// Re-arm band around the threshold; suppresses noise chatter near the
  /// decision level (traces carry additive stage noise).
  double hysteresis_v = 0.1;
  /// Crossings before t0 + settle are ignored (circuit settling,
  /// lead-in).
  double settle_ps = 400.0;
};

/// Throws std::invalid_argument, naming `caller` and the field, for a
/// non-finite threshold_v, hysteresis_v or settle_ps (a negative
/// settle_ps is no settle window); returns `opt`. Every entry point that
/// takes these options calls it up front: a NaN settle window or
/// threshold extracts no edges at all, which would surface only as a
/// misleading "no edges" error after the whole run.
const CrossingOptions& check_options(const CrossingOptions& opt,
                                     const char* caller);

/// Circular mean of the phases of `times_ps` on a grid of period `ui_ps`,
/// in [-ui_ps/2, ui_ps/2]; 0 for no times. Unlike an arithmetic mean of
/// (t mod ui) it is immune to phases wrapping around the grid boundary.
/// The one phase estimator of analyze_jitter and phase_delay_edges; the
/// caller checks `ui_ps`.
double circular_phase_ps(const std::vector<double>& times_ps, double ui_ps);

/// Throws std::invalid_argument "<caller>: ui_ps must be finite and > 0"
/// unless `ui_ps` is. Every entry point that takes a unit interval checks
/// it with this: a check written `!(ui_ps > 0)` rejects NaN but lets +Inf
/// through, which turns every phase into NaN and every window into Inf.
void require_ui(double ui_ps, const char* caller);

/// Throws std::invalid_argument "<caller>: <field> must be finite and ..."
/// unless `rj_rms_ps` is finite and > 0 (>= 0 when `rj_may_be_zero`) and
/// `transition_density` is finite and in (0, 1]. Every BER entry point
/// checks its jitter model with this: `!(rj > 0)` lets +Inf through (a
/// BER of rho/2 at every strobe), and an unchecked NaN density reads as
/// a fully open eye.
void require_jitter_model(double rj_rms_ps, double transition_density,
                          const char* caller, bool rj_may_be_zero = false);

}  // namespace gdelay::meas
