#include "measure/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
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

double Histogram::bin_center(std::size_t i) const {
  return lo_ + (static_cast<double>(i) + 0.5) * bin_width();
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

void Histogram::add_all(const std::vector<double>& xs) {
  for (double x : xs) add(x);
}

std::size_t Histogram::mode_bin() const {
  const auto it = std::max_element(counts_.begin(), counts_.end());
  return it == counts_.end() ? 0
                             : static_cast<std::size_t>(it - counts_.begin());
}

std::string Histogram::ascii(std::size_t max_width) const {
  std::string out;
  std::size_t peak = 0;
  for (auto c : counts_) peak = std::max(peak, c);
  if (peak == 0) peak = 1;
  char line[64];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    std::snprintf(line, sizeof line, "%10.3f |", bin_center(i));
    out += line;
    const auto bar = counts_[i] * max_width / peak;
    out.append(bar, '#');
    std::snprintf(line, sizeof line, " %zu\n", counts_[i]);
    out += line;
  }
  return out;
}

}  // namespace gdelay::meas
