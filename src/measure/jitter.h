// Jitter analysis: total (pk-pk), random (rms) and a dual-Dirac-style
// deterministic-jitter estimate, computed from 50 %-threshold crossing
// instants exactly the way a sampling-scope jitter package does it: fold
// each crossing onto the nominal unit-interval grid (the grid phase is
// estimated from the data itself by circular averaging,
// meas::circular_phase_ps) and look at the distribution of the residuals.
#pragma once

#include <cstddef>
#include <vector>

#include "measure/stats.h"
#include "signal/waveform.h"

namespace gdelay::meas {

struct JitterReport {
  std::size_t n_edges = 0;
  double ui_ps = 0.0;
  double grid_phase_ps = 0.0;  ///< Estimated crossing position within a UI.
  double tj_pp_ps = 0.0;       ///< Total jitter, peak-to-peak.
  double rj_rms_ps = 0.0;      ///< Random jitter, standard deviation.
  double dj_pp_ps = 0.0;       ///< Deterministic estimate: TJ - 2*Q*RJ, >= 0.
  std::vector<double> residuals_ps;  ///< Per-edge deviation from the grid.
};

/// Analyzes crossing instants against a UI grid of period `ui_ps`.
/// Edges may be an arbitrary mix of rising and falling as long as both
/// land on the same grid (true for NRZ and for 50 %-duty clocks). Throws
/// std::invalid_argument unless `ui_ps` is finite and > 0.
JitterReport analyze_jitter(const std::vector<double>& crossing_times_ps,
                            double ui_ps);

/// The former name of CrossingOptions, still spelled in perfbench/; new
/// code uses CrossingOptions.
using JitterMeasureOptions = CrossingOptions;

/// Convenience: extract crossings from a waveform and analyze them — the
/// JitterSink (measure/sinks.h) fed the whole waveform. Rejects
/// non-finite options (check_options) and a `ui_ps` that is not finite
/// and > 0.
JitterReport measure_jitter(const sig::Waveform& wf, double ui_ps,
                            const CrossingOptions& opt = {});

/// Data-dependent jitter analysis: crossing residuals grouped by the
/// length of the preceding run (the gap to the previous transition, in
/// UIs). A channel with memory — ISI from band limits, or bias droop
/// like our VGA stages — places an edge differently after a long run
/// than after a 0101 burst; the spread of the per-run-length means is
/// the classic DDJ figure.
struct DdjBucket {
  int run_ui = 0;          ///< Preceding gap, rounded to whole UIs.
  std::size_t n = 0;       ///< Edges in this bucket.
  double mean_ps = 0.0;    ///< Mean residual.
  double stddev_ps = 0.0;  ///< Spread within the bucket (RJ estimate).
};

struct DdjReport {
  std::vector<DdjBucket> buckets;  ///< Sorted by run length.
  /// Spread of bucket means (buckets with >= min_count edges).
  double ddj_pp_ps = 0.0;
};

DdjReport analyze_ddj(const std::vector<double>& crossing_times_ps,
                      double ui_ps, std::size_t min_count = 5);

}  // namespace gdelay::meas
