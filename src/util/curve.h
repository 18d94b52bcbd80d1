// Sampled transfer curves with interpolation and inversion.
//
// `Curve` stores (x, y) samples with strictly increasing x and evaluates
// by linear interpolation. `invert()` solves y -> x for monotonic curves;
// this is how a measured delay-vs-Vctrl characteristic (paper Fig. 7) is
// turned into the "what control voltage gives me 23.4 ps?" lookup used by
// the calibration engine.
#pragma once

#include <cstddef>
#include <vector>

namespace gdelay::util {

/// Linear interpolation between two points.
constexpr double lerp(double a, double b, double t) { return a + (b - a) * t; }

/// y at `x` on the segment (x0,y0)-(x1,y1); extrapolates linearly outside.
double interp_segment(double x0, double y0, double x1, double y1, double x);

/// Pool-adjacent-violators: least-squares non-decreasing fit to ys.
std::vector<double> isotonic_increasing(std::vector<double> ys);

class Curve {
 public:
  Curve() = default;

  /// Points must have strictly increasing x. Throws std::invalid_argument
  /// otherwise or if fewer than two points are given.
  Curve(std::vector<double> xs, std::vector<double> ys);

  std::size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }

  double y_min() const;
  double y_max() const;

  /// Linear interpolation; clamps to the end segments' linear extension.
  double operator()(double x) const;

  /// True if y is non-decreasing (within `tol`) over the whole domain.
  bool is_monotonic_increasing(double tol = 0.0) const;
  /// True if y is non-increasing (within `tol`) over the whole domain.
  bool is_monotonic_decreasing(double tol = 0.0) const;

  /// Solves operator()(x) == y for a monotonic curve. Clamps y into the
  /// curve's range first. Throws std::domain_error if the curve is not
  /// monotonic in either direction.
  double invert(double y) const;

  /// Mean of |dy/dx| over the central fraction of the domain — used to
  /// report the "mid-range slope" of a transfer characteristic
  /// (e.g. ps per volt of Vctrl).
  double mid_slope(double central_fraction = 0.5) const;

  /// Total y span (max - min).
  double y_span() const { return y_max() - y_min(); }

  /// Returns a copy whose y values are forced monotonic by pool-adjacent-
  /// violators regression. Direction is chosen automatically (whichever
  /// fits the data better). Calibration uses this to clean measurement
  /// noise off physically monotone transfer characteristics before
  /// inversion.
  Curve monotonicized() const;

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace gdelay::util
