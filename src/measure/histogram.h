// Fixed-bin histogram, used for crossing-time and voltage distributions.
// The constructor checks its range and bin count before it allocates, so
// a bad one throws std::invalid_argument naming the field, never a failed
// allocation, and add() never casts a non-finite bin position.
#pragma once

#include <cstddef>
#include <vector>

namespace gdelay::meas {

class Histogram {
 public:
  /// `n_bins` equal-width bins spanning [lo, hi). Values outside the span
  /// (including +/-Inf) are counted in underflow/overflow; a NaN counts in
  /// total() and nan_count() only. Throws std::invalid_argument unless lo
  /// and hi are finite, hi > lo with a finite hi - lo, and n_bins >= 1 is
  /// a size a vector can hold.
  Histogram(double lo, double hi, std::size_t n_bins);

  void add(double x);

  std::size_t n_bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_width() const;
  std::size_t count(std::size_t i) const { return counts_.at(i); }
  std::size_t total() const { return total_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t nan_count() const { return nan_; }

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
