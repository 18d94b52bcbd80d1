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

double mean(const std::vector<double>& xs);
double stddev(const std::vector<double>& xs);

/// q in [0, 1]; linear interpolation between order statistics.
double quantile(std::vector<double> xs, double q);

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

}  // namespace gdelay::meas
