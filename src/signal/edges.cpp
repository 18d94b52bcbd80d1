#include "signal/edges.h"

#include <algorithm>

namespace gdelay::sig {

StreamingEdgeExtractor::StreamingEdgeExtractor(double t0_ps, double dt_ps,
                                               const EdgeExtractOptions& opt)
    : t0_(t0_ps),
      dt_(dt_ps),
      th_(opt.threshold_v),
      hy_(std::max(opt.hysteresis_v, 0.0) / 2.0),
      t_min_(opt.t_min_ps) {
  hist_.reserve(256);
  edges_.reserve(64);
}

void StreamingEdgeExtractor::consume(const double* samples, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double cur = samples[k];
    const std::size_t g = n_seen_++;
    // gdelay-audit: allow(R6) history window is pruned every sample and
    // reserved up front; growth is O(transition length), not O(stream).
    hist_.push_back(cur);

    if (g == 0) {
      // State: +1 after the signal has been above th+hy, -1 after below
      // th-hy, 0 before the first excursion.
      if (cur > th_ + hy_) state_ = 1;
      else if (cur < th_ - hy_) state_ = -1;
    } else {
      int new_state = state_;
      if (cur > th_ + hy_) new_state = 1;
      else if (cur < th_ - hy_) new_state = -1;
      if (new_state != state_ && new_state != 0 && state_ != 0) {
        const bool rising = new_state > 0;
        // Locate the actual threshold crossing by scanning back for the
        // sample pair straddling the threshold in this direction. The
        // floor equals the materializing scan's `j > 1` guard when no
        // history has been pruned; with pruning, a straddling pair always
        // exists at j > base_ (see header), so the scans break at the
        // same j.
        const std::size_t floor = base_ + 1;
        std::size_t j = g;
        while (j > floor) {
          const double a = hist_[j - 1 - base_], b = hist_[j - base_];
          if ((rising && a <= th_ && b > th_) ||
              (!rising && a >= th_ && b < th_))
            break;
          --j;
        }
        const double a = hist_[j - 1 - base_], b = hist_[j - base_];
        double t;
        if (b == a) {
          t = t0_ + dt_ * static_cast<double>(j);
        } else {
          const double frac = (th_ - a) / (b - a);
          t = t0_ + dt_ * static_cast<double>(j - 1) + frac * dt_;
        }
        // A NaN crossing time fails the comparison and is dropped.
        // gdelay-audit: allow(R6) edge list is the sink's product, one
        // entry per transition; reserved up front in the constructor.
        if (t >= t_min_) edges_.push_back({t, rising});
      }
      state_ = new_state;
    }

    // Prune: once the signal is (weakly) back on the current state's side
    // of the threshold — or polarity is still unestablished — every
    // straddling pair a future backscan can stop at lies strictly after
    // this sample, so the older history is dead.
    if (state_ == 0 || (state_ == 1 && cur >= th_) ||
        (state_ == -1 && cur <= th_)) {
      if (g > base_) {
        hist_.erase(hist_.begin(),
                    hist_.begin() + static_cast<std::ptrdiff_t>(g - base_));
        base_ = g;
      }
    }
  }
}

std::vector<Edge> extract_edges(const Waveform& wf,
                                const EdgeExtractOptions& opt) {
  if (wf.size() < 2) return {};
  StreamingEdgeExtractor ex(wf.t0_ps(), wf.dt_ps(), opt);
  ex.consume(wf.samples().data(), wf.size());
  return ex.take_edges();
}

std::vector<double> edge_times(const std::vector<Edge>& edges) {
  std::vector<double> t;
  t.reserve(edges.size());
  for (const auto& e : edges) t.push_back(e.t_ps);
  return t;
}

std::vector<double> rising_times(const std::vector<Edge>& edges) {
  std::vector<double> t;
  for (const auto& e : edges)
    if (e.rising) t.push_back(e.t_ps);
  return t;
}

std::vector<double> falling_times(const std::vector<Edge>& edges) {
  std::vector<double> t;
  for (const auto& e : edges)
    if (!e.rising) t.push_back(e.t_ps);
  return t;
}

}  // namespace gdelay::sig
