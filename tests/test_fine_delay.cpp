// Tests for the N-stage fine-adjustment delay line (paper Fig. 6/7).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/calibration.h"
#include "core/fine_delay.h"
#include "measure/delay_meter.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"
#include "pinned_digest.h"

namespace gc = gdelay::core;
namespace gs = gdelay::sig;
namespace gm = gdelay::meas;
namespace gt = gdelay::test;
using gdelay::util::Rng;

namespace {
gs::SynthResult stim(double rate = 3.2, std::size_t bits = 48) {
  gs::SynthConfig sc;
  sc.rate_gbps = rate;
  return gs::synthesize_nrz(gs::prbs(7, bits), sc);
}
}  // namespace

TEST(FineDelayLine, RejectsBadStageCount) {
  gc::FineDelayConfig c;
  c.n_stages = 0;
  EXPECT_THROW(gc::FineDelayLine(c, Rng(1)), std::invalid_argument);
}

TEST(FineDelayLine, VctrlFansOutToAllStages) {
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(1));
  line.set_vctrl(0.9);
  for (int i = 0; i < line.n_stages(); ++i)
    EXPECT_DOUBLE_EQ(line.stage_vctrl(i), 0.9);
  line.set_stage_vctrl(2, 0.1);
  EXPECT_DOUBLE_EQ(line.stage_vctrl(2), 0.1);
  EXPECT_DOUBLE_EQ(line.stage_vctrl(0), 0.9);
}

TEST(FineDelayLine, OutputIsFullSwing) {
  const auto s = stim();
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(1));
  for (double v : {0.0, 1.5}) {
    line.set_vctrl(v);
    const auto out = line.process(s.wf);
    EXPECT_NEAR(out.peak_to_peak() / 2.0, 0.4, 0.05) << "vctrl=" << v;
  }
}

TEST(FineDelayLine, DelayMonotoneInVctrl) {
  const auto s = stim();
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(1));
  double prev = -1e18;
  for (int i = 0; i <= 6; ++i) {
    line.set_vctrl(1.5 * i / 6.0);
    const auto out = line.process(s.wf);
    const double d = gm::measure_delay(s.wf, out).mean_ps;
    EXPECT_GT(d, prev - 0.8) << "step " << i;  // allow measurement noise
    prev = d;
  }
}

TEST(FineDelayLine, FourStageRangeMatchesPaper) {
  // Paper: ~50-56 ps fine range for the 4-stage line at low GHz rates.
  const auto s = stim(3.2, 64);
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(1));
  const gc::DelayCalibrator cal;
  const double range = cal.measure_fine_range(line, s.wf);
  EXPECT_GT(range, 40.0);
  EXPECT_LT(range, 65.0);
}

TEST(FineDelayLine, TwoStageRangeIsHalf) {
  const auto s = stim(3.2, 64);
  gc::FineDelayLine four(gc::FineDelayConfig{}, Rng(1));
  gc::FineDelayLine two(gc::FineDelayConfig::two_stage(), Rng(1));
  const gc::DelayCalibrator cal;
  const double r4 = cal.measure_fine_range(four, s.wf);
  const double r2 = cal.measure_fine_range(two, s.wf);
  EXPECT_NEAR(r2, r4 / 2.0, 8.0);
  EXPECT_GT(r2, 18.0);
}

TEST(FineDelayLine, VctrlBlockInputModulates) {
  // Driving Vctrl during the run changes edge timing (jitter-injection
  // primitive): a slow square modulation on Vctrl must move edges. The
  // output is pinned to the former per-sample step_with_vctrl() path's
  // bytes at every chunking.
  const auto s = stim(3.2, 64);
  std::vector<double> vctrl(s.wf.size());
  for (std::size_t i = 0; i < vctrl.size(); ++i)
    vctrl[i] = (std::fmod(s.wf.time_at(i), 4000.0) < 2000.0) ? 0.2 : 1.3;
  gc::FineDelayConfig cfg;
  cfg.stage.noise_sigma_v = 0.0;
  cfg.output_stage.noise_sigma_v = 0.0;
  const std::uint64_t pin = 0xd6a1f1dd3069982aull;
  for (std::size_t chunk : {std::size_t{1}, std::size_t{17},
                            std::size_t{1024}, s.wf.size()}) {
    gc::FineDelayLine line(cfg, Rng(1));
    line.reset();
    gs::Waveform out(s.wf.t0_ps(), s.wf.dt_ps(), s.wf.size());
    for (std::size_t o = 0; o < s.wf.size(); o += chunk)
      line.process_block(s.wf.samples().data() + o, vctrl.data() + o,
                         out.samples().data() + o,
                         std::min(chunk, s.wf.size() - o), s.wf.dt_ps());
    EXPECT_EQ(gt::digest(out.samples()), pin) << "chunk " << chunk;
    // The line and its stages hold the last sample's Vctrl.
    EXPECT_EQ(line.vctrl(), vctrl.back());
    for (int st = 0; st < line.n_stages(); ++st)
      EXPECT_EQ(line.stage_vctrl(st), vctrl.back());
    // Spread across edges must reflect the two delay states (~30 ps
    // apart).
    const auto d = gm::measure_delay(s.wf, out);
    EXPECT_GT(d.max_ps - d.min_ps, 15.0);
  }
}

class FineDelayStageSweep : public ::testing::TestWithParam<int> {};

TEST_P(FineDelayStageSweep, RangeGrowsWithStageCount) {
  const int n = GetParam();
  const auto s = stim(3.2, 48);
  gc::FineDelayConfig cfg;
  cfg.n_stages = n;
  gc::FineDelayLine line(cfg, Rng(1));
  const gc::DelayCalibrator cal;
  const double range = cal.measure_fine_range(line, s.wf);
  // Roughly 12-14 ps per stage at this rate.
  EXPECT_GT(range, 8.0 * n);
  EXPECT_LT(range, 20.0 * n);
}

INSTANTIATE_TEST_SUITE_P(StageCounts, FineDelayStageSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class FineDelayRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(FineDelayRateSweep, MonotoneAndUsableAcrossRates) {
  // Application requirement: works from < 1 Gbps to 6.4 Gbps NRZ.
  const double rate = GetParam();
  const auto s = stim(rate, 48);
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(2));
  const gc::DelayCalibrator cal;
  const double range = cal.measure_fine_range(line, s.wf);
  EXPECT_GT(range, 33.0) << "rate " << rate;  // must cover a coarse step
}

INSTANTIATE_TEST_SUITE_P(Rates, FineDelayRateSweep,
                         ::testing::Values(0.8, 1.6, 3.2, 4.8, 6.4));
