// deskew: the paper's headline application end to end (Figs. 1/2).
//
// One op is one DeskewController::run() on a fresh copy of a seed-derived
// 8-lane 6.4 Gbps bus and its delay channels. Most of an op is batched
// fixed-Vctrl calibration; the rest is two serial measurement passes. The
// injector is never touched, so a change to the jitter-injection path
// should leave this workload unmoved.
//
// The traced op replays run() step by step through the same public calls,
// so each step gets its own span; its report must equal run()'s bit for bit.
#include <vector>

#include "ate/bus.h"
#include "ate/controller.h"
#include "core/calibration.h"
#include "core/channel.h"
#include "core/deskew.h"
#include "core/requirements.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace gdelay;

constexpr int kLanes = 8;
constexpr std::size_t kTrainingBits = 96;
constexpr int kVctrlPoints = 13;
constexpr double kTotalRangePs = 140.0;  // the prototype's range, Sec. 4

std::uint64_t digest_report(const ate::DeskewReport& r) {
  Digest d;
  d.f64s(r.arrival_before_ps);
  d.f64s(r.arrival_after_ps);
  d.f64(r.span_before_ps);
  d.f64(r.span_after_ps);
  d.f64(r.plan.target_arrival_ps);
  for (const core::DelaySetting& s : r.plan.settings) {
    d.u64(static_cast<std::uint64_t>(s.tap));
    d.u64(s.dac_code);
    d.f64(s.vctrl_v);
    d.f64(s.predicted_delay_ps);
  }
  d.f64s(r.plan.residual_ps);
  d.f64(r.plan.residual_span_ps);
  d.u64(r.plan.feasible ? 1 : 0);
  for (const core::ChannelCalibration& c : r.calibrations) {
    d.f64s(c.fine_curve.xs());
    d.f64s(c.fine_curve.ys());
    for (double t : c.tap_offset_ps) d.f64(t);
    d.f64(c.base_latency_ps);
  }
  return d.value();
}

class Deskew final : public Workload {
 public:
  Deskew(std::uint64_t seed, const WorkloadOptions&)
      : bus_(bus_config(), stream_rng(seed, 1)) {
    // The ATE's own ~100 ps-step deskew runs first, as in Fig. 2; the
    // delay lines take out what its quantization leaves.
    bus_.apply_native_deskew();
    for (int i = 0; i < kLanes; ++i)
      delays_.emplace_back(core::ChannelConfig::prototype(),
                           stream_rng(seed, 10 + static_cast<std::uint64_t>(i)));
    opt_.training = sig::prbs(7, kTrainingBits);
    opt_.calibration.n_vctrl_points = kVctrlPoints;
    // The controller's ideal launch grid, built the way its constructor
    // builds it; the replay calibrates against it.
    sig::SynthConfig sc = bus_.config().synth;
    sc.rate_gbps = bus_.config().rate_gbps;
    sc.rj_sigma_ps = 0.0;
    reference_ = sig::synthesize_nrz(opt_.training, sc).wf;
  }

  std::size_t ops_per_pass() const override { return 1; }
  bool concurrent_ops() const override { return false; }
  double paper_value() const override { return kTotalRangePs; }

  OpOutcome run_op(std::size_t, OpClock& clock) override {
    ate::AteBus bus = bus_;
    std::vector<core::VariableDelayChannel> delays = delays_;
    ate::DeskewController ctl(bus, delays, opt_);
    const ate::DeskewReport rep = clock.traced() ? replay(ctl, delays) : ctl.run();
    clock.stop();

    OpOutcome out;
    out.digest = digest_report(rep);
    double range = 0.0;
    for (const core::ChannelCalibration& c : rep.calibrations)
      range += c.total_range_ps();
    out.figure = range / static_cast<double>(rep.calibrations.size());
    if (!rep.plan.feasible)
      out.why = "deskew plan infeasible";
    else if (!(rep.span_after_ps < core::Requirements::kChannelSkewPs))
      out.why = "residual skew span not below the 5 ps requirement";
    out.ok = out.why.empty();
    return out;
  }

 private:
  static ate::AteBusConfig bus_config() {
    ate::AteBusConfig bc;
    bc.n_channels = kLanes;
    bc.rate_gbps = 6.4;
    bc.skew_span_ps = 260.0;
    bc.rj_sigma_ps = 0.8;
    return bc;
  }

  // DeskewController::run(), one public call per span.
  ate::DeskewReport replay(ate::DeskewController& ctl,
                           std::vector<core::VariableDelayChannel>& delays) const {
    ate::DeskewReport rep;
    for (auto& d : delays) {
      d.select_tap(0);
      d.set_vctrl(0.0);
    }
    {
      ScopedSpan span(Layer::kAteController);
      rep.arrival_before_ps = ctl.measure_arrivals();
    }
    rep.span_before_ps = ate::span(rep.arrival_before_ps);

    const core::DelayCalibrator calibrator(opt_.calibration);
    rep.calibrations.reserve(delays.size());
    for (auto& d : delays) {
      ScopedSpan span(Layer::kCalibration);
      rep.calibrations.push_back(calibrator.calibrate(d, reference_));
    }
    {
      ScopedSpan span(Layer::kDeskewPlan);
      rep.plan = core::DeskewEngine::plan(rep.arrival_before_ps, rep.calibrations);
    }
    for (std::size_t i = 0; i < delays.size(); ++i) {
      delays[i].select_tap(rep.plan.settings[i].tap);
      delays[i].set_vctrl(rep.plan.settings[i].vctrl_v);
    }
    {
      ScopedSpan span(Layer::kAteController);
      rep.arrival_after_ps = ctl.measure_arrivals();
    }
    rep.span_after_ps = ate::span(rep.arrival_after_ps);
    return rep;
  }

  ate::AteBus bus_;
  std::vector<core::VariableDelayChannel> delays_;
  ate::DeskewController::Options opt_;
  sig::Waveform reference_;
};

}  // namespace

std::unique_ptr<Workload> make_deskew(std::uint64_t seed,
                                      const WorkloadOptions& opt) {
  return std::make_unique<Deskew>(seed, opt);
}

}  // namespace perfbench
