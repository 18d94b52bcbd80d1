// First-order clock-data-recovery receiver.
//
// The plain DutReceiver strobes on a fixed grid; a SerDes receiver
// tracks the incoming crossings with a phase-locked loop and therefore
// *follows* low-frequency jitter instead of failing on it. That tracking
// is what gives real jitter-tolerance templates their shape: tolerance is
// huge below the loop bandwidth and flattens to the intrinsic eye margin
// above it. CdrReceiver implements the standard first-order linear model:
// on every observed transition,
//
//     phase += gain * wrap(edge_phase - phase, UI)
//
// which is a single-pole low-pass on input phase with a loop bandwidth of
// approximately gain * edge_rate / (2 pi).
#pragma once

#include <cstddef>
#include <vector>

#include "signal/pattern.h"
#include "signal/waveform.h"

namespace gdelay::ate {

struct CdrConfig {
  /// Unit interval; CdrReceiver's constructor throws
  /// std::invalid_argument unless it is finite and > 0.
  double ui_ps = 156.25;
  /// Per-edge proportional gain (dimensionless). With PRBS data (edge
  /// density ~0.5/UI) loop bandwidth ~= gain / (4 pi UI).
  double gain = 0.05;
  double threshold_v = 0.0;
  /// Edge-detector hysteresis.
  double hysteresis_v = 0.1;
};

struct CdrResult {
  sig::BitPattern bits;            ///< Recovered data.
  std::vector<double> strobes_ps;  ///< Sampling instants used.
  std::vector<double> phase_ps;    ///< Loop phase at each strobe.
  /// RMS of the residual (edge - tracked phase) error.
  double tracking_error_rms_ps = 0.0;
};

class CdrReceiver {
 public:
  explicit CdrReceiver(const CdrConfig& cfg);

  const CdrConfig& config() const { return cfg_; }
  /// Approximate loop bandwidth for PRBS data (GHz).
  double loop_bandwidth_ghz() const;

  /// Locks to the waveform's crossings and samples one bit per UI from
  /// `t_start` to the end of the (settled) record.
  CdrResult recover(const sig::Waveform& wf, double t_start_ps) const;

 private:
  CdrConfig cfg_;
};

}  // namespace gdelay::ate
