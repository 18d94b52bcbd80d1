#include "core/board.h"

#include <algorithm>
#include <stdexcept>

namespace gdelay::core {

DelayBoard::DelayBoard(const DelayBoardConfig& cfg, util::Rng rng) {
  if (cfg.n_channels < 1)
    throw std::invalid_argument("DelayBoard: need >= 1 channel");
  channels_.reserve(static_cast<std::size_t>(cfg.n_channels));
  for (int i = 0; i < cfg.n_channels; ++i) {
    util::Rng draw = rng.fork(static_cast<std::uint64_t>(i));
    const ChannelConfig inst = cfg.variation.apply(cfg.nominal, draw);
    channels_.emplace_back(inst, rng.fork(1000 + static_cast<std::uint64_t>(i)));
  }
}

const std::vector<ChannelCalibration>& DelayBoard::calibrate(
    const sig::Waveform& stimulus, const DelayCalibrator::Options& opt) {
  calibrations_ = DelayCalibrator(opt).calibrate(channels_, stimulus);
  return calibrations_;
}

const std::vector<ChannelCalibration>& DelayBoard::calibrations() const {
  if (calibrations_.empty())
    throw std::logic_error("DelayBoard: not calibrated yet");
  return calibrations_;
}

DelaySetting DelayBoard::program(int channel, double relative_delay_ps) {
  const auto& cal =
      calibrations().at(static_cast<std::size_t>(channel));
  const DelaySetting s = cal.plan(relative_delay_ps);
  auto& ch = channels_.at(static_cast<std::size_t>(channel));
  ch.select_tap(s.tap);
  ch.set_vctrl(s.vctrl_v);
  return s;
}

std::vector<DelaySetting> DelayBoard::program_all(double relative_delay_ps) {
  std::vector<DelaySetting> out;
  out.reserve(channels_.size());
  for (int i = 0; i < n_channels(); ++i)
    out.push_back(program(i, relative_delay_ps));
  return out;
}

double DelayBoard::common_range_ps() const {
  const auto& cals = calibrations();
  double range = cals.front().total_range_ps();
  for (const auto& c : cals)
    range = std::min(range, c.total_range_ps());
  return range;
}

}  // namespace gdelay::core
