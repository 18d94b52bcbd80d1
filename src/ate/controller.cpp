#include "ate/controller.h"

#include <algorithm>
#include <stdexcept>

#include "core/batch.h"
#include "measure/delay_meter.h"

namespace gdelay::ate {

double span(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
  return *hi - *lo;
}

DeskewController::DeskewController(
    AteBus& bus, std::vector<core::VariableDelayChannel>& delays)
    : DeskewController(bus, delays, Options{}) {}

DeskewController::DeskewController(
    AteBus& bus, std::vector<core::VariableDelayChannel>& delays,
    Options opt)
    : bus_(bus), delays_(delays), opt_(std::move(opt)) {
  if (static_cast<int>(delays_.size()) != bus_.n_channels())
    throw std::invalid_argument(
        "DeskewController: one delay channel per bus channel required");
  // Ideal reference: the bus's nominal electrical settings, no skew, no
  // jitter. This is the launch grid the ATE aims at.
  sig::SynthConfig sc = bus_.config().synth;
  sc.rate_gbps = bus_.config().rate_gbps;
  sc.rj_sigma_ps = 0.0;
  reference_ = sig::synthesize_nrz(opt_.training, sc).wf;
}

std::vector<double> DeskewController::measure_arrivals() {
  meas::DelayMeterOptions mo;
  mo.settle_ps = opt_.calibration.settle_ps;
  // Each ATE channel draws its jitter from its own RNG, so driving every
  // lane first, in channel order, draws what one pass per lane drew.
  std::vector<sig::Waveform> launched;
  launched.reserve(delays_.size());
  for (int i = 0; i < bus_.n_channels(); ++i)
    launched.push_back(bus_.channel(i).drive(opt_.training).wf);
  std::vector<core::VariableDelayChannel*> lanes;
  std::vector<const sig::Waveform*> stimuli;
  for (std::size_t i = 0; i < delays_.size(); ++i) {
    lanes.push_back(&delays_[i]);
    stimuli.push_back(&launched[i]);
  }
  const auto ref = meas::delay_edges(reference_, mo);
  std::vector<double> arrivals;
  arrivals.reserve(delays_.size());
  for (const auto& out : core::lane_edges(lanes, stimuli, mo))
    arrivals.push_back(meas::measure_delay_edges(ref, out).mean_ps);
  return arrivals;
}

DeskewReport DeskewController::run() {
  DeskewReport rep;

  // 1. Minimum-setting measurement pass.
  for (auto& d : delays_) {
    d.select_tap(0);
    d.set_vctrl(0.0);
  }
  rep.arrival_before_ps = measure_arrivals();
  rep.span_before_ps = span(rep.arrival_before_ps);

  // 2. Calibration of every channel against the clean reference, in one
  //    board-wide lane list.
  rep.calibrations =
      core::DelayCalibrator(opt_.calibration).calibrate(delays_, reference_);

  // 3. Plan.
  rep.plan = core::DeskewEngine::plan(rep.arrival_before_ps,
                                      rep.calibrations);

  // 4. Program and verify.
  for (std::size_t i = 0; i < delays_.size(); ++i) {
    delays_[i].select_tap(rep.plan.settings[i].tap);
    delays_[i].set_vctrl(rep.plan.settings[i].vctrl_v);
  }
  rep.arrival_after_ps = measure_arrivals();
  rep.span_after_ps = span(rep.arrival_after_ps);
  return rep;
}

}  // namespace gdelay::ate
