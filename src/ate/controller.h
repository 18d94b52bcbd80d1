// End-to-end deskew: the loop an ATE engineer runs with this hardware.
//
//  1. Drive a training pattern down every bus channel, through its
//     per-channel VariableDelayChannel at the minimum setting, and
//     measure each arrival against the ideal launch grid: one
//     core::lane_edges call over the bus, each lane with its own
//     launched waveform.
//  2. Calibrate every delay channel (Fig. 7 sweep + Fig. 9 taps): one
//     DelayCalibrator::calibrate call, the whole board one lane list.
//  3. Ask core::DeskewEngine for a common target and per-channel settings.
//  4. Program the settings and re-measure to verify the residual skew
//     (< 5 ps channel-to-channel is the application requirement).
#pragma once

#include <vector>

#include "ate/bus.h"
#include "core/calibration.h"
#include "core/channel.h"
#include "core/deskew.h"

namespace gdelay::ate {

struct DeskewReport {
  std::vector<double> arrival_before_ps;  ///< Per channel, min setting.
  std::vector<double> arrival_after_ps;   ///< Per channel, programmed.
  double span_before_ps = 0.0;            ///< Worst ch-to-ch skew before.
  double span_after_ps = 0.0;             ///< ... and after deskew.
  core::DeskewPlan plan;
  std::vector<core::ChannelCalibration> calibrations;
};

class DeskewController {
 public:
  struct Options {
    core::DelayCalibrator::Options calibration{};
    /// Training pattern driven during measurement passes.
    sig::BitPattern training = sig::prbs(7, 96);
  };

  /// `delays` must hold one VariableDelayChannel per bus channel; they are
  /// programmed in place.
  DeskewController(AteBus& bus,
                   std::vector<core::VariableDelayChannel>& delays);
  DeskewController(AteBus& bus,
                   std::vector<core::VariableDelayChannel>& delays,
                   Options opt);

  /// Runs the full measure -> calibrate -> plan -> program -> verify loop.
  DeskewReport run();

  /// Measurement pass only: per-channel arrival times at the current
  /// programming (relative to the ideal launch grid). Drives every bus
  /// channel in channel order, then runs the launched waveforms through
  /// their delay channels in one core::lane_edges call; each arrival is
  /// bit-identical to that lane's solo drive-process-measure pass.
  std::vector<double> measure_arrivals();

 private:
  AteBus& bus_;
  std::vector<core::VariableDelayChannel>& delays_;
  Options opt_;
  sig::Waveform reference_;  ///< Ideal (unskewed, jitter-free) training wf.
};

/// max - min of a vector (0 for empty).
double span(const std::vector<double>& xs);

}  // namespace gdelay::ate
