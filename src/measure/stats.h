// Small descriptive-statistics helpers shared by the instruments.
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
