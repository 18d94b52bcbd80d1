// eye_stream: the Figs. 12/13 characterization on the solo block path.
//
// One op streams one record of a 6.4 Gbps PRBS7 plan through a fresh
// channel at one (tap, Vctrl) setting, via Pipeline, into an eye, a jitter
// and a level-histogram sink. BatchRunner never runs here, so a change
// that speeds batched passes at the cost of solo ones shows on this
// workload. The traced op runs the channel's coarse block and fine line as
// two Pipeline stages, which must give the same bytes as the channel.
#include <cmath>

#include "core/channel.h"
#include "core/pipeline.h"
#include "measure/sinks.h"
#include "signal/pattern.h"
#include "signal/stream.h"
#include "signal/synth.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace gdelay;

constexpr std::size_t kBits = 512;
constexpr int kTaps = 4;
constexpr double kVctrlsV[] = {0.5, 1.0};
constexpr double kSettlePs = 12000.0;
constexpr double kFig13AddedTjPs = 13.0;

meas::JitterMeasureOptions settled() {
  meas::JitterMeasureOptions jo;
  jo.settle_ps = kSettlePs;
  return jo;
}

class EyeStream final : public Workload {
 public:
  EyeStream(std::uint64_t seed, const WorkloadOptions&)
      : channel_(core::ChannelConfig::prototype(), stream_rng(seed, 1)) {
    util::Rng rng(seed);
    sig::SynthConfig sc;
    sc.rate_gbps = 6.4;
    // DUT-like reference, TJ ~ 26 ps pk-pk, as in Fig. 13.
    sc.rj_sigma_ps = sig::rj_sigma_for_tj_pp(26.0, kBits / 2);
    plan_ = sig::plan_nrz(
        sig::prbs(7, kBits, static_cast<std::uint32_t>(rng.next_u64())), sc, &rng);
    // Input TJ, the baseline the ops' added jitter is read against.
    sig::SynthSource src{sig::SynthPlan(plan_)};
    meas::JitterSink in(plan_.unit_interval_ps, settled());
    core::Pipeline().run(src, in);
    input_tj_ps_ = in.report().tj_pp_ps;
  }

  std::size_t ops_per_pass() const override { return kTaps * 2; }
  bool concurrent_ops() const override { return true; }
  double paper_value() const override { return kFig13AddedTjPs; }

  OpOutcome run_op(std::size_t i, OpClock& clock) override {
    core::VariableDelayChannel ch = channel_;
    ch.select_tap(static_cast<int>(i) / 2);
    ch.set_vctrl(kVctrlsV[i % 2]);
    sig::SynthSource src{sig::SynthPlan(plan_)};
    const double ui = plan_.unit_interval_ps;
    meas::EyeSink eye(meas::EyeDiagram(ui, -0.55, 0.55, 72, 18), 0.0, kSettlePs);
    meas::JitterSink jitter(ui, settled());
    meas::LevelHistogramSink hist(-0.6, 0.6, 64, kSettlePs);

    core::Pipeline pipe;
    if (clock.traced()) {
      TimedStage<core::CoarseDelayBlock> coarse(ch.coarse(), Layer::kCoarseDelay);
      TimedStage<core::FineDelayLine> fine(ch.fine(), Layer::kFineDelay);
      TimedSource tsrc(src);
      TimedSink teye(eye, Layer::kMeasureEye);
      TimedSink tjit(jitter, Layer::kMeasureJitter);
      TimedSink thist(hist, Layer::kMeasureHistogram);
      pipe.add_stage(coarse).add_stage(fine);
      ScopedSpan span(Layer::kPipeline);
      pipe.run(tsrc, {&teye, &tjit, &thist});
    } else {
      pipe.add_stage(ch);
      pipe.run(src, {&eye, &jitter, &hist});
    }
    clock.stop();

    OpOutcome out;
    Digest d;
    const meas::EyeDiagram& e = eye.eye();
    for (std::size_t c = 0; c < e.cols(); ++c)
      for (std::size_t r = 0; r < e.rows(); ++r) d.u64(e.count(c, r));
    const meas::JitterReport& j = jitter.report();
    d.u64(j.n_edges);
    d.f64(j.grid_phase_ps);
    d.f64(j.tj_pp_ps);
    d.f64(j.rj_rms_ps);
    d.f64(j.dj_pp_ps);
    d.f64s(j.residuals_ps);
    const meas::Histogram& h = hist.histogram();
    for (std::size_t b = 0; b < h.n_bins(); ++b) d.u64(h.count(b));
    out.digest = d.value();
    out.samples = plan_.n;
    out.stream_samples = plan_.n;
    out.edges = j.n_edges;
    out.figure = j.tj_pp_ps - input_tj_ps_;
    if (j.n_edges < kBits / 4)
      out.why = "too few edges measured";
    else if (e.total() == 0 || h.total() == 0)
      out.why = "eye or level histogram empty";
    else if (!(std::isfinite(out.figure) && std::abs(out.figure) < 40.0))
      out.why = "added TJ outside +/- 40 ps";
    out.ok = out.why.empty();
    return out;
  }

 private:
  core::VariableDelayChannel channel_;
  sig::SynthPlan plan_;
  double input_tj_ps_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_eye_stream(std::uint64_t seed,
                                          const WorkloadOptions& opt) {
  return std::make_unique<EyeStream>(seed, opt);
}

}  // namespace perfbench
