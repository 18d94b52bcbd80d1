// Order statistics for the benchmark's reported timings.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks
/// (the numpy / Python "inclusive" default). NaN for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Samples that lie beyond percentile `q` in a sample of `n`.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

/// A tail percentile is reported only when at least `min_beyond` samples
/// lie beyond it; fewer make it a reading of one or two outliers.
inline bool percentile_reportable(std::size_t n, double q,
                                  std::size_t min_beyond = 10) {
  return samples_beyond(n, q) >= min_beyond;
}

}  // namespace perfbench
