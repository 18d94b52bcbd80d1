// Tests for the buffer models — including the paper's central claim: the
// propagation delay of the variable-gain buffer depends (monotonically,
// roughly linearly) on the programmed amplitude, and the effect survives
// the amplitude-recovery output stage.
#include <gtest/gtest.h>

#include <cmath>

#include "analog/buffer.h"
#include "measure/delay_meter.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace ga = gdelay::analog;
namespace gs = gdelay::sig;
namespace gm = gdelay::meas;
using gdelay::util::Rng;

namespace {

ga::VgaBufferConfig quiet_vga() {
  ga::VgaBufferConfig c;
  c.noise_sigma_v = 0.0;  // deterministic timing tests
  return c;
}

ga::LimitingBufferConfig quiet_limiter() {
  ga::LimitingBufferConfig c;
  c.noise_sigma_v = 0.0;
  return c;
}

gs::SynthResult stimulus(double rate = 3.2, std::size_t bits = 48) {
  gs::SynthConfig sc;
  sc.rate_gbps = rate;
  return gs::synthesize_nrz(gs::prbs(7, bits), sc);
}

double mean_delay(const gs::Waveform& ref, const gs::Waveform& out) {
  return gm::measure_delay(ref, out).mean_ps;
}

}  // namespace

TEST(VgaBuffer, RejectsBadConfig) {
  ga::VgaBufferConfig c = quiet_vga();
  c.amp_min_v = 0.0;
  EXPECT_THROW(ga::VariableGainBuffer(c, Rng(1)), std::invalid_argument);
  c = quiet_vga();
  c.amp_max_v = c.amp_min_v;
  EXPECT_THROW(ga::VariableGainBuffer(c, Rng(1)), std::invalid_argument);
  c = quiet_vga();
  c.vctrl_max_v = 0.0;
  EXPECT_THROW(ga::VariableGainBuffer(c, Rng(1)), std::invalid_argument);
}

TEST(VgaBuffer, AmplitudeControlCurve) {
  ga::VariableGainBuffer b(quiet_vga(), Rng(1));
  const auto& cfg = b.config();
  EXPECT_NEAR(b.amplitude_for(0.0), cfg.amp_min_v, 1e-9);
  EXPECT_NEAR(b.amplitude_for(cfg.vctrl_max_v), cfg.amp_max_v, 1e-9);
  // Monotone in between.
  double prev = 0.0;
  for (int i = 0; i <= 20; ++i) {
    const double a = b.amplitude_for(cfg.vctrl_max_v * i / 20.0);
    if (i > 0) {
      EXPECT_GT(a, prev);
    }
    prev = a;
  }
  // Clamps outside the control range.
  EXPECT_DOUBLE_EQ(b.amplitude_for(-1.0), b.amplitude_for(0.0));
  EXPECT_DOUBLE_EQ(b.amplitude_for(9.0), b.amplitude_for(cfg.vctrl_max_v));
}

TEST(VgaBuffer, OutputSwingTracksProgrammedAmplitude) {
  const auto stim = stimulus();
  for (double v : {0.0, 0.75, 1.5}) {
    ga::VariableGainBuffer b(quiet_vga(), Rng(1));
    b.set_vctrl(v);
    const auto out = b.process(stim.wf);
    const double half_swing = out.peak_to_peak() / 2.0;
    EXPECT_NEAR(half_swing, b.amplitude_for(v), 0.06 * b.amplitude_for(v))
        << "vctrl=" << v;
  }
}

TEST(VgaBuffer, DelayIncreasesWithAmplitude) {
  // The headline effect (paper Fig. 4/5): larger programmed amplitude ->
  // longer 50 % propagation delay, without the delay being stored anywhere.
  const auto stim = stimulus();
  double prev = -1e9;
  for (int i = 0; i <= 6; ++i) {
    ga::VariableGainBuffer b(quiet_vga(), Rng(1));
    b.set_vctrl(1.5 * i / 6.0);
    const auto out = b.process(stim.wf);
    gm::CrossingOptions o;
    o.hysteresis_v = 0.02;  // small-swing intermediate signal
    const double d = gm::measure_delay(stim.wf, out, o).mean_ps;
    EXPECT_GT(d, prev) << "vctrl step " << i;
    prev = d;
  }
}

TEST(VgaBuffer, PerStageRangeIsPicoseconds) {
  // One stage contributes roughly 10 ps (the paper observed ~10 ps).
  const auto stim = stimulus();
  gm::CrossingOptions o;
  o.hysteresis_v = 0.02;
  ga::VariableGainBuffer lo(quiet_vga(), Rng(1));
  lo.set_vctrl(0.0);
  ga::VariableGainBuffer hi(quiet_vga(), Rng(1));
  hi.set_vctrl(1.5);
  const double range = gm::measure_delay(stim.wf, hi.process(stim.wf), o).mean_ps -
                       gm::measure_delay(stim.wf, lo.process(stim.wf), o).mean_ps;
  EXPECT_GT(range, 5.0);
  EXPECT_LT(range, 25.0);
}

TEST(VgaBuffer, ResetClearsState) {
  ga::VariableGainBuffer b(quiet_vga(), Rng(1));
  const auto stim = stimulus(3.2, 16);
  const auto a = b.process(stim.wf);  // process() resets first
  const auto c = b.process(stim.wf);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], c[i]);
}

TEST(LimitingBuffer, RestoresFullSwing) {
  // Small input swing in, full logic swing out — amplitude recovery.
  const auto stim = stimulus();
  ga::VariableGainBuffer vga(quiet_vga(), Rng(1));
  vga.set_vctrl(0.0);  // smallest swing
  auto small = vga.process(stim.wf);
  ga::LimitingBuffer lim(quiet_limiter(), Rng(2));
  const auto out = lim.process(small);
  EXPECT_NEAR(out.peak_to_peak() / 2.0, quiet_limiter().out_swing_v, 0.05);
}

TEST(LimitingBuffer, PreservesEdgeTiming) {
  // The output stage must carry the input's timing: two inputs shifted by
  // X ps produce outputs shifted by X ps (the skew range propagates
  // through, as Fig. 5 shows).
  const auto stim = stimulus();
  ga::VariableGainBuffer lo(quiet_vga(), Rng(1));
  lo.set_vctrl(0.0);
  ga::VariableGainBuffer hi(quiet_vga(), Rng(1));
  hi.set_vctrl(1.5);
  gm::CrossingOptions small_sig;
  small_sig.hysteresis_v = 0.02;
  const auto wf_lo = lo.process(stim.wf);
  const auto wf_hi = hi.process(stim.wf);
  const double in_shift =
      gm::measure_delay(wf_lo, wf_hi, small_sig).mean_ps;

  ga::LimitingBuffer la(quiet_limiter(), Rng(2));
  ga::LimitingBuffer lb(quiet_limiter(), Rng(2));
  const double out_shift =
      mean_delay(la.process(wf_lo), lb.process(wf_hi));
  EXPECT_NEAR(out_shift, in_shift, 2.0);
}

TEST(LimitingBuffer, RejectsBadSwing) {
  ga::LimitingBufferConfig c = quiet_limiter();
  c.out_swing_v = 0.0;
  EXPECT_THROW(ga::LimitingBuffer(c, Rng(1)), std::invalid_argument);
}

TEST(VgaBuffer, NoiseAddsJitterMonotonically) {
  // More internal noise -> more delay spread edge to edge.
  const auto stim = stimulus(3.2, 96);
  double prev = -1.0;
  for (double sigma : {0.0, 0.01, 0.03}) {
    ga::VgaBufferConfig c = quiet_vga();
    c.noise_sigma_v = sigma;
    ga::VariableGainBuffer b(c, Rng(33));
    b.set_vctrl(0.75);
    gm::CrossingOptions o;
    o.hysteresis_v = 0.02;
    const double sd = gm::measure_delay(stim.wf, b.process(stim.wf), o).stddev_ps;
    EXPECT_GT(sd, prev) << "sigma=" << sigma;
    prev = sd;
  }
}
