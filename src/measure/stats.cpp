#include "measure/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/fastmath.h"
#include "util/units.h"

namespace gdelay::meas {

void require_finite(double v, const char* caller, const char* field) {
  if (!std::isfinite(v))
    throw std::invalid_argument(std::string(caller) + ": " + field +
                                " must be finite");
}

const CrossingOptions& check_options(const CrossingOptions& opt,
                                     const char* caller) {
  require_finite(opt.threshold_v, caller, "threshold_v");
  require_finite(opt.hysteresis_v, caller, "hysteresis_v");
  require_finite(opt.settle_ps, caller, "settle_ps");
  return opt;
}

double circular_phase_ps(const std::vector<double>& times_ps, double ui_ps) {
  double c = 0.0, s = 0.0;
  for (double t : times_ps) {
    const double turns = t / ui_ps;
    double sv, cv;
    util::det_sincos2pi(turns - std::floor(turns), sv, cv);
    c += cv;
    s += sv;
  }
  // gdelay-audit: allow(R1) analysis-side circular-mean readout; not in
  // the simulated signal path.
  return std::atan2(s, c) / (2.0 * util::kPi) * ui_ps;
}

void require_ui(double ui_ps, const char* caller) {
  if (!(std::isfinite(ui_ps) && ui_ps > 0.0))
    throw std::invalid_argument(std::string(caller) +
                                ": ui_ps must be finite and > 0");
}

void require_jitter_model(double rj_rms_ps, double transition_density,
                          const char* caller, bool rj_may_be_zero) {
  if (!(std::isfinite(rj_rms_ps) &&
        (rj_rms_ps > 0.0 || (rj_may_be_zero && rj_rms_ps == 0.0))))
    throw std::invalid_argument(
        std::string(caller) + ": rj_rms_ps must be finite and " +
        (rj_may_be_zero ? ">= 0" : "> 0"));
  if (!(std::isfinite(transition_density) && transition_density > 0.0 &&
        transition_density <= 1.0))
    throw std::invalid_argument(
        std::string(caller) +
        ": transition_density must be finite and in (0, 1]");
}

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  if (xs.empty()) return s;
  s.n = xs.size();
  s.min = xs.front();
  s.max = xs.front();
  double acc = 0.0;
  for (double x : xs) {
    acc += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = acc / static_cast<double>(s.n);
  double var = 0.0;
  for (double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(s.n));
  return s;
}

}  // namespace gdelay::meas
