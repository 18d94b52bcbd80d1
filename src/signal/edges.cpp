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
  edges_.reserve(64);
}

void StreamingEdgeExtractor::consume(const double* samples, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    const double cur = samples[k];
    const std::size_t g = n_seen_++;
    if (g == base_ + 1) after_base_ = cur;

    // State: +1 after the signal has been above th+hy, -1 after below
    // th-hy, 0 before the first excursion.
    int new_state = state_;
    if (cur > th_ + hy_) new_state = 1;
    else if (cur < th_ - hy_) new_state = -1;
    if (new_state != state_ && new_state != 0 && state_ != 0) {
      // The crossing lies between sample base_ and the one after it.
      // Under the old state base_ followed every sample on the old side
      // of the threshold (or on it), so sample base_ is there and is not
      // NaN, and every later sample up to this one is strictly past the
      // threshold or NaN: no later pair straddles the threshold, and the
      // two samples never compare equal.
      const double frac = (th_ - at_base_) / (after_base_ - at_base_);
      const double t = t0_ + dt_ * static_cast<double>(base_) + frac * dt_;
      // A NaN crossing time fails the comparison and is dropped.
      // gdelay-audit: allow(R6) edge list is the sink's product, one
      // entry per transition; reserved up front in the constructor.
      if (t >= t_min_) edges_.push_back({t, new_state > 0});
    }
    state_ = new_state;

    // Once the signal is (weakly) back on the current state's side of
    // the threshold — or polarity is still unestablished — the next
    // flip's crossing lies after this sample.
    if (state_ == 0 || (state_ == 1 && cur >= th_) ||
        (state_ == -1 && cur <= th_)) {
      base_ = g;
      at_base_ = cur;
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
