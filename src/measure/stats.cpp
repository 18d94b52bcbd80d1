#include "measure/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace gdelay::meas {

void require_finite(double v, const char* caller, const char* field) {
  if (!std::isfinite(v))
    throw std::invalid_argument(std::string(caller) + ": " + field +
                                " must be finite");
}

void require_ui(double ui_ps, const char* caller) {
  if (!(std::isfinite(ui_ps) && ui_ps > 0.0))
    throw std::invalid_argument(std::string(caller) +
                                ": ui_ps must be finite and > 0");
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

double mean(const std::vector<double>& xs) { return summarize(xs).mean; }
double stddev(const std::vector<double>& xs) { return summarize(xs).stddev; }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty sample");
  q = std::clamp(q, 0.0, 1.0);
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= xs.size()) return xs.back();
  return xs[i] + (xs[i + 1] - xs[i]) * frac;
}

}  // namespace gdelay::meas
