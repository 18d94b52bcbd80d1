// The multi-channel deskew board.
//
// The paper demonstrates a 2-channel prototype (Fig. 11) and reports a
// 4-channel version "for deskewing parallel data buses from an ATE"; the
// end application needs 8 differential channels under the DIB. DelayBoard
// bundles N VariableDelayChannels built from one nominal design with
// per-instance process variation, plus board-level calibration (every
// channel's sweep and tap clones in one lane list, DelayCalibrator's
// board call) and group programming.
#pragma once

#include <optional>
#include <vector>

#include "core/calibration.h"
#include "core/channel.h"
#include "core/variation.h"
#include "signal/waveform.h"
#include "util/rng.h"

namespace gdelay::core {

struct DelayBoardConfig {
  int n_channels = 4;
  ChannelConfig nominal = ChannelConfig::prototype();
  /// Per-instance scatter applied to every channel (disable by zeroing).
  ProcessVariation variation{};
};

class DelayBoard {
 public:
  DelayBoard(const DelayBoardConfig& cfg, util::Rng rng);

  int n_channels() const { return static_cast<int>(channels_.size()); }
  VariableDelayChannel& channel(int i) {
    return channels_.at(static_cast<std::size_t>(i));
  }
  const VariableDelayChannel& channel(int i) const {
    return channels_.at(static_cast<std::size_t>(i));
  }

  /// Calibrates every channel against the same stimulus in one
  /// DelayCalibrator::calibrate() call over the board; results are
  /// retained for programming. Returns the calibrations.
  const std::vector<ChannelCalibration>& calibrate(
      const sig::Waveform& stimulus, const DelayCalibrator::Options& opt);
  const std::vector<ChannelCalibration>& calibrate(
      const sig::Waveform& stimulus) {
    return calibrate(stimulus, DelayCalibrator::Options{});
  }

  const std::vector<ChannelCalibration>& calibrations() const;

  /// Programs one channel to a delay relative to its own minimum.
  /// Requires calibrate() to have run. Returns the realized setting.
  DelaySetting program(int channel, double relative_delay_ps);

  /// Programs every channel to the same relative delay (group move).
  std::vector<DelaySetting> program_all(double relative_delay_ps);

  /// The largest delay programmable on EVERY channel (min over channels
  /// of the per-channel total range) — the board's usable group range.
  double common_range_ps() const;

 private:
  std::vector<VariableDelayChannel> channels_;
  std::vector<ChannelCalibration> calibrations_;
};

}  // namespace gdelay::core
