// Cross-module integration tests: requirement-compliance smoke checks
// exercising the full stack (synth -> channel -> instruments -> planning).
#include <gtest/gtest.h>

#include "core/calibration.h"
#include "core/channel.h"
#include "core/jitter_injector.h"
#include "core/requirements.h"
#include "measure/delay_meter.h"
#include "measure/eye.h"
#include "measure/jitter.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace gc = gdelay::core;
namespace gs = gdelay::sig;
namespace gm = gdelay::meas;
using gdelay::util::Rng;

TEST(Integration, RequirementConstantsAreSane) {
  using R = gc::Requirements;
  EXPECT_LT(R::kResolutionPs, R::kChannelSkewPs);
  EXPECT_LT(R::kChannelSkewPs, R::kCoarseStepPs);
  EXPECT_GT(R::kTotalRangePs, R::kAteResolutionPs);
  EXPECT_NEAR(1000.0 / R::kMaxRateGbps, R::kBitPeriodAtMaxPs, 1e-9);
}

TEST(Integration, ChannelPassesMaxRateWithOpenEye) {
  // 6.4 Gbps PRBS7 through the full prototype channel: the output eye
  // must stay usable (paper Fig. 13).
  gs::SynthConfig sc;
  sc.rate_gbps = gc::Requirements::kMaxRateGbps;
  sc.rj_sigma_ps = 1.0;
  Rng rng(31);
  const auto stim = gs::synthesize_nrz(gs::prbs(7, 192), sc, &rng);
  gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), rng.fork(1));
  ch.select_tap(1);
  ch.set_vctrl(0.75);
  const auto out = ch.process(stim.wf);
  const auto eye = gm::measure_eye(out, stim.unit_interval_ps);
  EXPECT_GT(eye.eye_width_ps, 0.6 * stim.unit_interval_ps);
  EXPECT_GT(eye.eye_height_v, 0.4);
}

TEST(Integration, ChannelWorksAtLowRate) {
  // "<1 Gbps" end of the operating range.
  gs::SynthConfig sc;
  sc.rate_gbps = 0.8;
  const auto stim = gs::synthesize_nrz(gs::prbs(7, 24), sc);
  gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(32));
  const auto out = ch.process(stim.wf);
  const auto d = gm::measure_delay(stim.wf, out);
  EXPECT_GT(d.n_edges, 5u);
  EXPECT_GT(d.mean_ps, 0.0);
}

TEST(Integration, AddedJitterSmallBelowSixGbps) {
  // Paper: ~7 ps added TJ typical below 6 Gbps. Budget check with margin.
  gs::SynthConfig sc;
  sc.rate_gbps = 4.8;
  sc.rj_sigma_ps = 1.8;
  Rng rng(33);
  const auto stim = gs::synthesize_nrz(gs::prbs(7, 512), sc, &rng);
  gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), rng.fork(2));
  ch.set_vctrl(0.75);
  const auto out = ch.process(stim.wf);
  // Skip the droop settling transient in both traces (same edge count).
  gm::CrossingOptions jo;
  jo.settle_ps = 12000.0;
  const double tj_in =
      gm::measure_jitter(stim.wf, stim.unit_interval_ps, jo).tj_pp_ps;
  const double tj_out =
      gm::measure_jitter(out, stim.unit_interval_ps, jo).tj_pp_ps;
  EXPECT_GT(tj_out, tj_in);            // the circuit does add jitter
  EXPECT_LT(tj_out - tj_in, 15.0);     // ... but only a handful of ps
                                       // (pk-pk statistic headroom)
}

TEST(Integration, CalibrateProgramVerifySubPs) {
  // The full programming loop with a long stimulus: the realized delay
  // must track the request to about a picosecond.
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto stim = gs::synthesize_nrz(gs::prbs(7, 127), sc);
  gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(34));
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 17;
  const auto cal = gc::DelayCalibrator(o).calibrate(ch, stim.wf);
  ASSERT_LT(cal.resolution_ps(), gc::Requirements::kResolutionPs);

  const double target = 77.7;
  const auto set = cal.plan(target);
  ch.select_tap(set.tap);
  ch.set_vctrl(set.vctrl_v);
  const auto out = ch.process(stim.wf);
  const double rel =
      gm::measure_delay(stim.wf, out).mean_ps - cal.base_latency_ps;
  EXPECT_NEAR(rel, target, 1.2);
}

TEST(Integration, JitterInjectionThenMeasurementChain) {
  // Inject jitter, then verify a DUT-style receiver sees the closed eye.
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto stim = gs::synthesize_nrz(gs::prbs(7, 256), sc);
  gc::JitterInjectorConfig jc;
  jc.noise_pp_v = 0.9;
  gc::JitterInjector inj(jc, Rng(35));
  const auto out = inj.process(stim.wf);
  const auto clean = gm::measure_eye(stim.wf, stim.unit_interval_ps);
  const auto jittered = gm::measure_eye(out, stim.unit_interval_ps);
  EXPECT_LT(jittered.eye_width_ps, clean.eye_width_ps - 20.0);
}

TEST(Integration, DeterministicAcrossRuns) {
  // Same seeds, same everything: the whole pipeline must be bit-stable.
  auto run = [] {
    gs::SynthConfig sc;
    sc.rate_gbps = 6.4;
    sc.rj_sigma_ps = 1.0;
    Rng rng(99);
    const auto stim = gs::synthesize_nrz(gs::prbs(7, 64), sc, &rng);
    gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), rng.fork(3));
    ch.set_vctrl(1.0);
    const auto out = ch.process(stim.wf);
    return gm::measure_delay(stim.wf, out).mean_ps;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}
