// DUT-side receiving register (Fig. 1): samples each data channel with a
// common strobe/clock and reports bit errors and setup/hold violations.
// The timing-window scan ("shmoo") sweeps the strobe phase across a unit
// interval; deskew quality shows up directly as the width of the common
// error-free window across all bus channels.
#pragma once

#include <cstddef>
#include <vector>

#include "signal/pattern.h"
#include "signal/waveform.h"

namespace gdelay::ate {

struct DutReceiverConfig {
  double setup_ps = 12.0;
  double hold_ps = 12.0;
  double threshold_v = 0.0;
};

struct SampleResult {
  sig::BitPattern bits;
  /// Strobes with a data transition inside [t - setup, t + hold].
  std::size_t violations = 0;
};

struct PhaseScanPoint {
  double phase_ps = 0.0;
  std::size_t errors = 0;      ///< Bit mismatches at best alignment.
  std::size_t violations = 0;  ///< Setup/hold hits.
  bool pass() const { return errors == 0 && violations == 0; }
};

struct PhaseScan {
  std::vector<PhaseScanPoint> points;
  /// Widest contiguous passing window, wrapping across the UI boundary.
  double window_ps = 0.0;
};

class DutReceiver {
 public:
  explicit DutReceiver(const DutReceiverConfig& cfg = {}) : cfg_(cfg) {}

  const DutReceiverConfig& config() const { return cfg_; }

  /// Samples `wf` at the given strobe instants.
  SampleResult sample(const sig::Waveform& wf,
                      const std::vector<double>& strobes_ps) const;

  /// Bit mismatches between `got` and `expected`, minimized over a small
  /// integer alignment shift (the receiver does not know the pipeline
  /// latency in unit intervals).
  static std::size_t best_alignment_errors(const sig::BitPattern& got,
                                           const sig::BitPattern& expected,
                                           int max_shift = 8);

  /// Sweeps the strobe phase over one UI. Strobes are placed at
  /// t_first + phase + k*ui for k in [0, n_strobes). Throws
  /// std::invalid_argument unless `ui_ps` is finite and > 0 and there
  /// are at least 2 phase points.
  PhaseScan scan_phase(const sig::Waveform& wf,
                       const sig::BitPattern& expected, double ui_ps,
                       double t_first_ps, std::size_t n_strobes,
                       std::size_t n_phase_points = 64) const;

 private:
  DutReceiverConfig cfg_;
};

/// Intersection of per-channel scans: a phase point passes only if every
/// channel passes there. Returns the combined scan (phases must match).
/// Throws std::invalid_argument, as scan_phase() does, when `scans` is
/// empty, the scans have no phase points or differ in point count, or
/// `ui_ps` is not finite and > 0.
PhaseScan intersect_scans(const std::vector<PhaseScan>& scans, double ui_ps);

}  // namespace gdelay::ate
