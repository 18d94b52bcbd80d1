// Threshold-crossing extraction.
//
// Instruments (delay meter, jitter analyzer, eye diagram) reduce waveforms
// to lists of 50 %-threshold crossing instants. Crossing times are located
// by linear interpolation between the two straddling samples, which gives
// far-sub-sample (<< 0.1 ps) accuracy on the smooth edges our synthesis
// and circuit models produce.
#pragma once

#include <vector>

#include "signal/waveform.h"

namespace gdelay::sig {

struct Edge {
  double t_ps = 0.0;
  bool rising = false;
};

struct EdgeExtractOptions {
  double threshold_v = 0.0;   ///< Differential decision threshold.
  double hysteresis_v = 0.0;  ///< Re-arm band around the threshold.
  /// Ignore crossings before this time (lets callers skip lead-in settling).
  double t_min_ps = -1e18;
};

/// All threshold crossings of `wf`, in time order. With hysteresis > 0 a
/// crossing is only reported after the signal has moved at least
/// hysteresis/2 past the threshold, suppressing chatter on noisy traces.
std::vector<Edge> extract_edges(const Waveform& wf,
                                const EdgeExtractOptions& opt = {});

/// Incremental threshold-crossing extraction over a sample stream.
///
/// Feeding the same samples in any chunking — one call or sample by
/// sample — yields exactly the edges extract_edges() reports for the
/// materialized waveform; extract_edges() is in fact implemented on top
/// of this class, so the identity holds by construction. The crossing
/// locator scans backwards from the hysteresis-qualified flip to the
/// straddling sample pair, so a short history window is retained across
/// chunk seams. History is pruned whenever the signal sits on the
/// current state's side of the threshold (or polarity is still
/// unestablished): past that point no future backscan can reach, because
/// the next flip must cross the threshold strictly later. The window is
/// therefore O(transition length), not O(stream length).
class StreamingEdgeExtractor {
 public:
  StreamingEdgeExtractor(double t0_ps, double dt_ps,
                         const EdgeExtractOptions& opt = {});

  /// Appends `n` samples to the stream, emitting any completed edges.
  void consume(const double* samples, std::size_t n);

  /// Edges emitted so far, in time order.
  const std::vector<Edge>& edges() const { return edges_; }
  /// Moves the edge list out (the extractor keeps its scan state).
  std::vector<Edge> take_edges() { return std::move(edges_); }

 private:
  double t0_;
  double dt_;
  double th_;
  double hy_;
  double t_min_;
  int state_ = 0;           ///< +1 above, -1 below, 0 before first excursion.
  std::size_t n_seen_ = 0;  ///< Global index of the next sample.
  std::vector<double> hist_;  ///< Retained samples; hist_[0] is index base_.
  std::size_t base_ = 0;      ///< Global index of hist_.front().
  std::vector<Edge> edges_;
};

/// Convenience filters.
std::vector<double> edge_times(const std::vector<Edge>& edges);
std::vector<double> rising_times(const std::vector<Edge>& edges);
std::vector<double> falling_times(const std::vector<Edge>& edges);

}  // namespace gdelay::sig
