#include "measure/eye.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "measure/stats.h"
#include "signal/edges.h"

namespace gdelay::meas {

namespace {

// The raster's cell count, checked before it is allocated: a bad range or
// size throws std::invalid_argument, never a failed allocation or a
// product that wrapped to a raster too small for add()'s indices. Finite
// spans (2 UI, v_max - v_min) keep add()'s cell position finite.
std::size_t raster_cells(double ui_ps, double v_min, double v_max,
                         std::size_t cols, std::size_t rows) {
  require_ui(ui_ps, "EyeDiagram");
  if (!std::isfinite(2.0 * ui_ps))
    throw std::invalid_argument("EyeDiagram: ui_ps must span a finite 2 UI");
  require_finite(v_min, "EyeDiagram", "v_min");
  require_finite(v_max, "EyeDiagram", "v_max");
  if (!(v_max > v_min) || !std::isfinite(v_max - v_min))
    throw std::invalid_argument(
        "EyeDiagram: v_max must be > v_min, v_max - v_min finite");
  if (cols < 2 || rows < 2)
    throw std::invalid_argument("EyeDiagram: cols and rows must be >= 2");
  if (rows > std::vector<std::size_t>().max_size() / cols)
    throw std::invalid_argument("EyeDiagram: cols * rows cells do not fit");
  return cols * rows;
}

}  // namespace

EyeDiagram::EyeDiagram(double ui_ps, double v_min, double v_max,
                       std::size_t cols, std::size_t rows)
    : ui_(ui_ps),
      v_min_(v_min),
      v_max_(v_max),
      cols_(cols),
      rows_(rows),
      grid_(raster_cells(ui_ps, v_min, v_max, cols, rows), 0) {}

void EyeDiagram::add(double t_ps, double phase_ps, double v) {
  const double span = 2.0 * ui_;
  double x = std::fmod(t_ps - phase_ps, span);
  if (x < 0.0) x += span;
  // A NaN level fails the range test as written, and a non-finite time or
  // phase folds to NaN: neither may reach the index casts below.
  if (!(v >= v_min_ && v < v_max_) || std::isnan(x)) return;
  const auto col = std::min(
      static_cast<std::size_t>(x / span * static_cast<double>(cols_)),
      cols_ - 1);
  const auto row = std::min(
      static_cast<std::size_t>((v - v_min_) / (v_max_ - v_min_) *
                               static_cast<double>(rows_)),
      rows_ - 1);
  ++grid_[row * cols_ + col];
  ++total_;
}

void EyeDiagram::accumulate(const sig::Waveform& wf, double phase_ps,
                            double settle_ps) {
  for (std::size_t i = 0; i < wf.size(); ++i) {
    const double t = wf.time_at(i);
    if (t < wf.t0_ps() + settle_ps) continue;
    add(t, phase_ps, wf[i]);
  }
}

std::size_t EyeDiagram::count(std::size_t col, std::size_t row) const {
  return grid_.at(row * cols_ + col);
}

std::string EyeDiagram::ascii() const {
  static const char shades[] = " .:-=+*#%@";
  std::size_t peak = 0;
  for (auto c : grid_) peak = std::max(peak, c);
  if (peak == 0) peak = 1;
  std::string out;
  out.reserve((cols_ + 1) * rows_);
  for (std::size_t r = rows_; r-- > 0;) {  // top row = highest voltage
    for (std::size_t c = 0; c < cols_; ++c) {
      const double x = static_cast<double>(grid_[r * cols_ + c]) /
                       static_cast<double>(peak);
      const auto idx = static_cast<std::size_t>(
          std::min(x * 9.0 + (x > 0.0 ? 1.0 : 0.0), 9.0));
      out += shades[idx];
    }
    out += '\n';
  }
  return out;
}

EyeMetrics measure_eye(const sig::Waveform& wf, double ui_ps,
                       double threshold_v, double settle_ps) {
  EyeMetrics m;
  m.ui_ps = ui_ps;

  JitterMeasureOptions jo;
  jo.threshold_v = threshold_v;
  jo.settle_ps = settle_ps;
  m.jitter = measure_jitter(wf, ui_ps, jo);
  m.crossing_phase_ps = m.jitter.grid_phase_ps;
  m.eye_width_ps = std::max(0.0, ui_ps - m.jitter.tj_pp_ps);

  // Eye center sits half a UI after the crossing. Collect samples within
  // +/- 5 % of a UI around it and split them by the threshold.
  const double center = m.crossing_phase_ps + ui_ps / 2.0;
  const double halfwin = 0.05 * ui_ps;
  std::vector<double> high, low;
  for (std::size_t i = 0; i < wf.size(); ++i) {
    const double t = wf.time_at(i);
    if (t < wf.t0_ps() + settle_ps) continue;
    double x = std::fmod(t - center, ui_ps);
    if (x < 0.0) x += ui_ps;
    if (x > ui_ps / 2.0) x -= ui_ps;
    if (std::abs(x) > halfwin) continue;
    (wf[i] >= threshold_v ? high : low).push_back(wf[i]);
  }
  if (!high.empty() && !low.empty()) {
    const Summary h = summarize(high);
    const Summary l = summarize(low);
    m.level_high_v = h.mean;
    m.level_low_v = l.mean;
    // Inner opening: worst-case high minus worst-case low.
    m.eye_height_v = std::max(0.0, h.min - l.max);
  }
  return m;
}

}  // namespace gdelay::meas
