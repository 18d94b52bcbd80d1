#include "signal/waveform.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gdelay::sig {

Waveform::Waveform(double t0_ps, double dt_ps, std::size_t n)
    : Waveform(t0_ps, dt_ps, std::vector<double>(n, 0.0)) {}

Waveform::Waveform(double t0_ps, double dt_ps, std::vector<double> samples)
    : t0_(t0_ps), dt_(dt_ps), v_(std::move(samples)) {
  if (!std::isfinite(dt_ps) || dt_ps <= 0.0)
    throw std::invalid_argument("Waveform: dt must be finite and > 0");
}

Waveform Waveform::from_function(double t0_ps, double dt_ps, std::size_t n,
                                 const std::function<double(double)>& f) {
  Waveform w(t0_ps, dt_ps, n);
  for (std::size_t i = 0; i < n; ++i) w.v_[i] = f(w.time_at(i));
  return w;
}

double Waveform::value_at(double t_ps) const {
  if (empty()) return 0.0;
  const double x = (t_ps - t0_) / dt_;
  if (std::isnan(x)) return x;  // NaN in, NaN out — never an index
  if (x <= 0.0) return v_.front();
  const double last = static_cast<double>(size() - 1);
  if (x >= last) return v_.back();
  const auto i = static_cast<std::size_t>(x);
  const double frac = x - static_cast<double>(i);
  return v_[i] + (v_[i + 1] - v_[i]) * frac;
}

double Waveform::min_value() const {
  if (empty()) return 0.0;
  return *std::min_element(v_.begin(), v_.end());
}

double Waveform::max_value() const {
  if (empty()) return 0.0;
  return *std::max_element(v_.begin(), v_.end());
}

double Waveform::peak_to_peak() const { return max_value() - min_value(); }

Waveform& Waveform::scale(double gain, double offset) {
  for (auto& s : v_) s = s * gain + offset;
  return *this;
}

Waveform Waveform::shifted(double shift_ps) const {
  Waveform w = *this;
  w.t0_ += shift_ps;
  return w;
}

Waveform Waveform::slice(double t_from_ps, double t_to_ps) const {
  if (empty() || t_to_ps < t_from_ps) return Waveform(t_from_ps, dt_, 0);
  const double lo = std::max(t_from_ps, t0_);
  const double hi = std::min(t_to_ps, t_end_ps());
  const auto i0 = static_cast<std::size_t>(std::ceil((lo - t0_) / dt_ - 1e-9));
  const auto i1 = static_cast<std::size_t>(std::floor((hi - t0_) / dt_ + 1e-9));
  if (i1 < i0 || i0 >= size()) return Waveform(lo, dt_, 0);
  const std::size_t end = std::min(i1 + 1, size());
  return Waveform(time_at(i0), dt_,
                  std::vector<double>(v_.begin() + static_cast<std::ptrdiff_t>(i0),
                                      v_.begin() + static_cast<std::ptrdiff_t>(end)));
}

}  // namespace gdelay::sig
