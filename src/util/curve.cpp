#include "util/curve.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gdelay::util {

double interp_segment(double x0, double y0, double x1, double y1, double x) {
  if (x1 == x0) return 0.5 * (y0 + y1);
  return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
}

Curve::Curve(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  if (xs_.size() != ys_.size())
    throw std::invalid_argument("Curve: xs/ys size mismatch");
  if (xs_.size() < 2) throw std::invalid_argument("Curve: need >= 2 points");
  for (std::size_t i = 1; i < xs_.size(); ++i)
    if (!(xs_[i] > xs_[i - 1]))
      throw std::invalid_argument("Curve: x not strictly increasing");
}

double Curve::y_min() const {
  return *std::min_element(ys_.begin(), ys_.end());
}
double Curve::y_max() const {
  return *std::max_element(ys_.begin(), ys_.end());
}

double Curve::operator()(double x) const {
  if (x <= xs_.front())
    return interp_segment(xs_[0], ys_[0], xs_[1], ys_[1], x);
  if (x >= xs_.back()) {
    const std::size_t n = xs_.size();
    return interp_segment(xs_[n - 2], ys_[n - 2], xs_[n - 1], ys_[n - 1], x);
  }
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  const std::size_t i = static_cast<std::size_t>(it - xs_.begin());
  return interp_segment(xs_[i - 1], ys_[i - 1], xs_[i], ys_[i], x);
}

bool Curve::is_monotonic_increasing(double tol) const {
  for (std::size_t i = 1; i < ys_.size(); ++i)
    if (ys_[i] < ys_[i - 1] - tol) return false;
  return true;
}

bool Curve::is_monotonic_decreasing(double tol) const {
  for (std::size_t i = 1; i < ys_.size(); ++i)
    if (ys_[i] > ys_[i - 1] + tol) return false;
  return true;
}

double Curve::invert(double y) const {
  const bool inc = is_monotonic_increasing(1e-12);
  const bool dec = is_monotonic_decreasing(1e-12);
  if (!inc && !dec) throw std::domain_error("Curve::invert: not monotonic");
  const double lo = y_min(), hi = y_max();
  const double yc = std::clamp(y, lo, hi);
  // Walk segments; within a flat segment return its midpoint x.
  for (std::size_t i = 1; i < ys_.size(); ++i) {
    const double ya = ys_[i - 1], yb = ys_[i];
    const bool inside = inc ? (yc >= ya - 1e-12 && yc <= yb + 1e-12)
                            : (yc <= ya + 1e-12 && yc >= yb - 1e-12);
    if (!inside) continue;
    if (std::abs(yb - ya) < 1e-15) return 0.5 * (xs_[i - 1] + xs_[i]);
    const double t = (yc - ya) / (yb - ya);
    return lerp(xs_[i - 1], xs_[i], t);
  }
  // Numerically possible only through rounding at the ends.
  return yc == lo ? (inc ? xs_.front() : xs_.back())
                  : (inc ? xs_.back() : xs_.front());
}

double Curve::mid_slope(double central_fraction) const {
  central_fraction = std::clamp(central_fraction, 0.05, 1.0);
  const double span = xs_.back() - xs_.front();
  const double lo = xs_.front() + span * (1.0 - central_fraction) / 2.0;
  const double hi = xs_.back() - span * (1.0 - central_fraction) / 2.0;
  double acc = 0.0;
  int n = 0;
  for (std::size_t i = 1; i < xs_.size(); ++i) {
    const double xm = 0.5 * (xs_[i] + xs_[i - 1]);
    if (xm < lo || xm > hi) continue;
    acc += std::abs((ys_[i] - ys_[i - 1]) / (xs_[i] - xs_[i - 1]));
    ++n;
  }
  if (n == 0) return 0.0;
  return acc / n;
}

std::vector<double> isotonic_increasing(std::vector<double> ys) {
  // Pool-adjacent-violators with unit weights: merge any decreasing
  // neighbour blocks into their mean until the sequence is non-decreasing.
  struct Block {
    double sum;
    std::size_t n;
    double mean() const { return sum / static_cast<double>(n); }
  };
  std::vector<Block> blocks;
  blocks.reserve(ys.size());
  for (double y : ys) {
    blocks.push_back({y, 1});
    while (blocks.size() >= 2 &&
           blocks[blocks.size() - 2].mean() > blocks.back().mean()) {
      blocks[blocks.size() - 2].sum += blocks.back().sum;
      blocks[blocks.size() - 2].n += blocks.back().n;
      blocks.pop_back();
    }
  }
  std::vector<double> out;
  out.reserve(ys.size());
  for (const auto& b : blocks) out.insert(out.end(), b.n, b.mean());
  return out;
}

Curve Curve::monotonicized() const {
  const auto inc = isotonic_increasing(ys_);
  std::vector<double> neg(ys_.size());
  for (std::size_t i = 0; i < ys_.size(); ++i) neg[i] = -ys_[i];
  auto dec = isotonic_increasing(std::move(neg));
  for (auto& y : dec) y = -y;
  double err_inc = 0.0, err_dec = 0.0;
  for (std::size_t i = 0; i < ys_.size(); ++i) {
    err_inc += (inc[i] - ys_[i]) * (inc[i] - ys_[i]);
    err_dec += (dec[i] - ys_[i]) * (dec[i] - ys_[i]);
  }
  return Curve(xs_, err_inc <= err_dec ? inc : dec);
}

}  // namespace gdelay::util
