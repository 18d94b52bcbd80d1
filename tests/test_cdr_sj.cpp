// Tests for sinusoidal-jitter injection and the CDR receiver — together
// they reproduce the frequency-dependent jitter-tolerance behaviour real
// SerDes test programs measure.
#include <gtest/gtest.h>

#include <cmath>

#include "ate/cdr.h"
#include "ate/dut.h"
#include "core/jitter_injector.h"
#include "measure/jitter.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace ga = gdelay::ate;
namespace gc = gdelay::core;
namespace gs = gdelay::sig;
namespace gm = gdelay::meas;
using gdelay::util::Rng;

namespace {
gs::SynthResult stim(std::size_t bits = 512, double rate = 3.2) {
  gs::SynthConfig sc;
  sc.rate_gbps = rate;
  return gs::synthesize_nrz(gs::prbs(7, bits), sc);
}
}  // namespace

TEST(SjInjection, ValidatesParameters) {
  gc::JitterInjector inj(gc::JitterInjectorConfig{}, Rng(1));
  EXPECT_THROW(inj.set_sj(-0.1, 0.01), std::invalid_argument);
  EXPECT_THROW(inj.set_sj(0.5, 0.0), std::invalid_argument);
}

TEST(SjInjection, CreatesPeriodicJitter) {
  const auto s = stim();
  gc::JitterInjectorConfig cfg;
  cfg.noise_pp_v = 0.0;
  cfg.line.stage.noise_sigma_v = 0.0;
  cfg.line.output_stage.noise_sigma_v = 0.0;
  cfg.sj_pp_v = 0.8;
  cfg.sj_freq_ghz = 0.02;  // 20 MHz, well inside the coupler passband
  gc::JitterInjector inj(cfg, Rng(2));
  const auto out = inj.process(s.wf);
  gm::CrossingOptions jo;
  jo.settle_ps = 12000.0;
  const auto j = gm::measure_jitter(out, s.unit_interval_ps, jo);
  // 0.8 V * ~43 ps/V of Vctrl sensitivity -> tens of ps of bounded DJ.
  EXPECT_GT(j.tj_pp_ps, 15.0);
  EXPECT_LT(j.tj_pp_ps, 60.0);
  // SJ is bounded: the pk-pk to rms ratio of a sine is 2*sqrt(2) ~ 2.8,
  // far below a Gaussian's ~7 at this edge count.
  EXPECT_LT(j.tj_pp_ps / j.rj_rms_ps, 4.5);
}

TEST(SjInjection, AmplitudeScalesJitter) {
  const auto s = stim(384);
  gc::JitterInjectorConfig cfg;
  cfg.noise_pp_v = 0.0;
  cfg.line.stage.noise_sigma_v = 0.0;
  cfg.line.output_stage.noise_sigma_v = 0.0;
  cfg.sj_freq_ghz = 0.02;
  gm::CrossingOptions jo;
  jo.settle_ps = 12000.0;
  double prev = -1.0;
  for (double pp : {0.2, 0.5, 0.9}) {
    cfg.sj_pp_v = pp;
    gc::JitterInjector inj(cfg, Rng(3));
    const auto j =
        gm::measure_jitter(inj.process(s.wf), s.unit_interval_ps, jo);
    EXPECT_GT(j.tj_pp_ps, prev) << "pp=" << pp;
    prev = j.tj_pp_ps;
  }
}

TEST(Cdr, Validation) {
  ga::CdrConfig c;
  c.gain = 0.0;
  EXPECT_THROW(ga::CdrReceiver{c}, std::invalid_argument);
  c.gain = 0.05;
  c.ui_ps = 0.0;
  EXPECT_THROW(ga::CdrReceiver{c}, std::invalid_argument);
}

TEST(Cdr, RecoversCleanData) {
  const auto bits = gs::prbs(7, 256);
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto r = gs::synthesize_nrz(bits, sc);
  ga::CdrConfig c;
  c.ui_ps = r.unit_interval_ps;
  ga::CdrReceiver rx(c);
  const auto res = rx.recover(r.wf, sc.lead_in_ps);
  ASSERT_GT(res.bits.size(), 200u);
  // The first recovered bit lands wherever the first transition was;
  // align with the generic helper.
  const std::size_t errors =
      ga::DutReceiver::best_alignment_errors(res.bits, bits, 16);
  EXPECT_EQ(errors, 0u);
  EXPECT_LT(res.tracking_error_rms_ps, 3.0);
}

TEST(Cdr, TracksSlowPhaseDrift) {
  // A waveform whose phase wanders slowly (low-frequency SJ) is tracked:
  // the loop's tracking error stays far below the applied wander.
  const auto bits = gs::prbs(7, 1024);
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  sc.dj_pp_ps = 40.0;
  sc.dj_freq_ghz = 0.0005;  // 0.5 MHz: far below the loop bandwidth
  const auto r = gs::synthesize_nrz(bits, sc);
  ga::CdrConfig c;
  c.ui_ps = r.unit_interval_ps;
  c.gain = 0.08;
  ga::CdrReceiver rx(c);
  const auto res = rx.recover(r.wf, sc.lead_in_ps);
  EXPECT_LT(res.tracking_error_rms_ps, 6.0);  // wander rms would be ~14
}

TEST(Cdr, CannotTrackFastJitter) {
  // The same wander amplitude far ABOVE the loop bandwidth is untracked:
  // the tracking error approaches the full applied jitter.
  const auto bits = gs::prbs(7, 1024);
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  sc.dj_pp_ps = 40.0;
  sc.dj_freq_ghz = 0.2;  // 200 MHz
  const auto r = gs::synthesize_nrz(bits, sc);
  ga::CdrConfig c;
  c.ui_ps = r.unit_interval_ps;
  c.gain = 0.08;
  ga::CdrReceiver rx(c);
  const auto res = rx.recover(r.wf, sc.lead_in_ps);
  EXPECT_GT(res.tracking_error_rms_ps, 9.0);
}

TEST(Cdr, LoopBandwidthEstimate) {
  ga::CdrConfig c;
  c.ui_ps = 312.5;
  c.gain = 0.08;
  ga::CdrReceiver rx(c);
  // tau = UI / (0.5 g) = 7812 ps -> f3dB ~ 20 MHz.
  EXPECT_NEAR(rx.loop_bandwidth_ghz(), 0.0204, 0.002);
}
