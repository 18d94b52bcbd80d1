#include "measure/histogram.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "measure/stats.h"

namespace gdelay::meas {

namespace {

// Runs before the bins are allocated, so a bad range or count throws
// std::invalid_argument, never a failed allocation. A finite span keeps
// add()'s bin index finite: (x - lo) / width of an infinite lo or span is
// inf / inf.
std::size_t checked_bins(double lo, double hi, std::size_t n_bins) {
  require_finite(lo, "Histogram", "lo");
  require_finite(hi, "Histogram", "hi");
  if (!(hi > lo) || !std::isfinite(hi - lo))
    throw std::invalid_argument("Histogram: hi must be > lo, hi - lo finite");
  if (n_bins == 0 || n_bins > std::vector<std::size_t>().max_size())
    throw std::invalid_argument("Histogram: n_bins must be >= 1 and fit");
  return n_bins;
}

}  // namespace

Histogram::Histogram(double lo, double hi, std::size_t n_bins)
    : lo_(lo), hi_(hi), counts_(checked_bins(lo, hi, n_bins), 0) {}

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
