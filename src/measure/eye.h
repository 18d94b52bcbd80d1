// Eye-diagram accumulation and metrics — the software equivalent of the
// sampling oscilloscope displays in the paper's Figs. 9, 12, 13, 14, 16.
//
// Samples are folded modulo one unit interval into a 2-UI-wide raster
// (two eye openings, one full crossing in the middle, like a scope set to
// 2 UI/screen). Metrics come from the crossing-time and level
// distributions: eye width = UI - TJ(pp), eye height from the level
// clusters in a narrow column at the eye center. The raster's constructor
// checks its range and size before it allocates, so a bad one throws
// std::invalid_argument naming the field, never a failed allocation, and
// add() never casts a non-finite cell position or indexes past the grid.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "measure/jitter.h"
#include "signal/waveform.h"

namespace gdelay::meas {

struct EyeMetrics {
  double ui_ps = 0.0;
  double crossing_phase_ps = 0.0;  ///< Crossing position within the UI.
  double eye_width_ps = 0.0;       ///< UI - TJ(pp).
  double eye_height_v = 0.0;       ///< Vertical opening at eye center.
  double level_high_v = 0.0;       ///< Mean of the high cluster at center.
  double level_low_v = 0.0;        ///< Mean of the low cluster at center.
  JitterReport jitter;             ///< Crossing-time jitter statistics.
};

class EyeDiagram {
 public:
  /// Raster of `cols` x `rows` covering 2 UI horizontally and
  /// [v_min, v_max] vertically. Throws std::invalid_argument unless
  /// `ui_ps` is finite and > 0 (2 UI finite too), v_min and v_max are
  /// finite with v_max > v_min and a finite v_max - v_min, both sizes are
  /// >= 2, and cols * rows neither wraps nor exceeds what a vector holds.
  EyeDiagram(double ui_ps, double v_min, double v_max, std::size_t cols = 96,
             std::size_t rows = 32);

  /// Folds a waveform into the raster. `phase_ps` rotates the fold so the
  /// crossing appears centered; `settle_ps` skips the initial transient.
  void accumulate(const sig::Waveform& wf, double phase_ps = 0.0,
                  double settle_ps = 400.0);

  /// Folds a single sample at absolute time `t_ps` into the raster — the
  /// incremental unit behind accumulate() and the streaming EyeSink.
  /// Applies no settle gating; callers skip transient samples themselves.
  /// A NaN level or one outside [v_min, v_max), and a sample whose time
  /// or phase is not finite, are dropped uncounted.
  void add(double t_ps, double phase_ps, double v);

  double ui_ps() const { return ui_; }
  std::size_t cols() const { return cols_; }
  std::size_t rows() const { return rows_; }
  std::size_t count(std::size_t col, std::size_t row) const;
  std::size_t total() const { return total_; }

  /// ASCII art of the accumulated eye (density-shaded), for bench output.
  std::string ascii() const;

 private:
  double ui_;
  double v_min_;
  double v_max_;
  std::size_t cols_;
  std::size_t rows_;
  std::vector<std::size_t> grid_;  // row-major [row][col]
  std::size_t total_ = 0;
};

/// Computes the eye metrics for a waveform at the given UI, using the
/// crossing distribution for the horizontal numbers and a +/-5 %-UI column
/// at the eye center for the vertical ones.
EyeMetrics measure_eye(const sig::Waveform& wf, double ui_ps,
                       double threshold_v = 0.0, double settle_ps = 400.0);

}  // namespace gdelay::meas
