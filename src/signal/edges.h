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
/// of this class, so the identity holds by construction. A crossing is
/// interpolated between the last sample on the pre-flip side of the
/// threshold (or on it) and the sample right after it; every later
/// sample up to the flip lies strictly past the threshold or is NaN, so
/// no other pair straddles it, and the locator carries only those two
/// samples across chunk seams. A NaN right after that last sample gives
/// a NaN time, and the edge is dropped (a scan back through the whole
/// record would look past the NaN to an older straddling pair instead).
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
  /// Index of the last sample on the state's side of the threshold (or
  /// on it); every sample while the state is 0.
  std::size_t base_ = 0;
  double at_base_ = 0.0;     ///< Sample base_.
  double after_base_ = 0.0;  ///< Sample base_ + 1, once seen.
  std::vector<Edge> edges_;
};

/// Convenience filters.
std::vector<double> edge_times(const std::vector<Edge>& edges);
std::vector<double> rising_times(const std::vector<Edge>& edges);
std::vector<double> falling_times(const std::vector<Edge>& edges);

}  // namespace gdelay::sig
