// Fixed-bin histogram, used for crossing-time and voltage distributions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gdelay::meas {

class Histogram {
 public:
  /// `n_bins` equal-width bins spanning [lo, hi). Values outside the span
  /// (including +/-Inf) are counted in underflow/overflow; a NaN counts in
  /// total() and nan_count() only.
  Histogram(double lo, double hi, std::size_t n_bins);

  void add(double x);
  void add_all(const std::vector<double>& xs);

  std::size_t n_bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_width() const;
  double bin_center(std::size_t i) const;
  std::size_t count(std::size_t i) const { return counts_.at(i); }
  std::size_t total() const { return total_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t nan_count() const { return nan_; }

  /// Index of the fullest bin (0 if the histogram is empty).
  std::size_t mode_bin() const;

  /// Simple ASCII rendering (one row per bin) for bench/report output.
  std::string ascii(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t nan_ = 0;
};

}  // namespace gdelay::meas
