#include "measure/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gdelay::meas {

Histogram::Histogram(double lo, double hi, std::size_t n_bins)
    : lo_(lo), hi_(hi), counts_(n_bins, 0) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: need hi > lo");
  if (n_bins == 0) throw std::invalid_argument("Histogram: need >= 1 bin");
}

double Histogram::bin_width() const {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  if (std::isnan(x)) {
    ++nan_;
    return;
  }
  const auto i = static_cast<std::size_t>((x - lo_) / bin_width());
  ++counts_[std::min(i, counts_.size() - 1)];
}

}  // namespace gdelay::meas
