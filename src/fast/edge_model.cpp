#include "fast/edge_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "measure/jitter.h"

namespace gdelay::fast {

FastChannel::FastChannel(EdgeModelParams params, util::Rng rng)
    : params_(std::move(params)), rng_(rng) {
  if (params_.fine_curve.empty())
    throw std::invalid_argument("FastChannel: empty fine curve");
}

void FastChannel::select_tap(int tap) {
  if (tap < 0 || tap >= 4)
    throw std::invalid_argument("FastChannel: tap out of range");
  tap_ = tap;
}

double FastChannel::latency_ps() const {
  return params_.base_latency_ps +
         params_.tap_offset_ps[static_cast<std::size_t>(tap_)] +
         params_.fine_curve(vctrl_);
}

std::vector<double> FastChannel::transform(
    const std::vector<double>& edges_ps) {
  const double d = latency_ps();
  std::vector<double> out;
  out.reserve(edges_ps.size());
  for (double t : edges_ps) {
    double j = 0.0;
    if (params_.added_rj_sigma_ps > 0.0)
      j = rng_.gaussian(0.0, params_.added_rj_sigma_ps);
    out.push_back(t + d + j);
  }
  // Heavy jitter could reorder very close edges; keep the list sorted so
  // downstream instruments see a causal sequence.
  std::sort(out.begin(), out.end());
  return out;
}

EdgeModelParams fit_edge_model(core::VariableDelayChannel& ch,
                               const sig::Waveform& stimulus, double ui_ps,
                               core::DelayCalibrator::Options opts) {
  const core::DelayCalibrator calibrator(opts);
  const core::ChannelCalibration cal = calibrator.calibrate(ch, stimulus);

  EdgeModelParams p;
  p.base_latency_ps = cal.base_latency_ps;
  p.fine_curve = cal.fine_curve;
  p.tap_offset_ps = cal.tap_offset_ps;

  // Added jitter: compare the stimulus' own RJ with the output's at a
  // mid-range setting; independent contributions add in quadrature.
  const int saved_tap = ch.selected_tap();
  const double saved_vctrl = ch.vctrl();
  ch.select_tap(0);
  ch.set_vctrl(ch.vctrl_max() / 2.0);
  const auto out = ch.process(stimulus);
  meas::CrossingOptions jo;
  jo.settle_ps = opts.settle_ps;
  const double rj_in = meas::measure_jitter(stimulus, ui_ps, jo).rj_rms_ps;
  const double rj_out = meas::measure_jitter(out, ui_ps, jo).rj_rms_ps;
  p.added_rj_sigma_ps =
      std::sqrt(std::max(0.0, rj_out * rj_out - rj_in * rj_in));
  ch.select_tap(saved_tap);
  ch.set_vctrl(saved_vctrl);
  return p;
}

}  // namespace gdelay::fast
