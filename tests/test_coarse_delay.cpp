// Tests for the 4-tap coarse delay section (paper Fig. 8/9).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/coarse_delay.h"
#include "measure/delay_meter.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace gc = gdelay::core;
namespace gs = gdelay::sig;
namespace gm = gdelay::meas;
using gdelay::util::Rng;

namespace {
gs::SynthResult stim(double rate = 6.4, std::size_t bits = 48) {
  gs::SynthConfig sc;
  sc.rate_gbps = rate;
  return gs::synthesize_nrz(gs::prbs(7, bits), sc);
}
}  // namespace

TEST(CoarseDelay, SelectValidation) {
  gc::CoarseDelayBlock blk(gc::CoarseDelayConfig{}, Rng(1));
  EXPECT_THROW(blk.select(-1), std::invalid_argument);
  EXPECT_THROW(blk.select(4), std::invalid_argument);
  blk.select(2);
  EXPECT_EQ(blk.selected(), 2);
  EXPECT_THROW(blk.tap_delay_ps(7), std::invalid_argument);
}

TEST(CoarseDelay, NominalTapSpacing) {
  gc::CoarseDelayBlock blk(gc::CoarseDelayConfig{}, Rng(1));
  EXPECT_DOUBLE_EQ(blk.tap_delay_ps(0), 0.0);
  EXPECT_DOUBLE_EQ(blk.tap_delay_ps(1), 33.0);
  EXPECT_DOUBLE_EQ(blk.tap_delay_ps(2), 66.0);
  EXPECT_DOUBLE_EQ(blk.tap_delay_ps(3), 99.0);
}

TEST(CoarseDelay, PrototypeTapErrors) {
  const auto cfg = gc::CoarseDelayConfig::prototype();
  gc::CoarseDelayBlock blk(cfg, Rng(1));
  EXPECT_DOUBLE_EQ(blk.tap_delay_ps(2), 70.0);  // measured Fig. 9
  EXPECT_DOUBLE_EQ(blk.tap_delay_ps(3), 95.0);
}

TEST(CoarseDelay, MeasuredStepsMatchTrims) {
  // Measured tap-to-tap delay must equal the configured trace lengths to
  // within a fraction of a ps.
  const auto s = stim();
  gc::CoarseDelayBlock blk(gc::CoarseDelayConfig::prototype(), Rng(2));
  double d[4];
  for (int tap = 0; tap < 4; ++tap) {
    blk.select(tap);
    const auto out = blk.process(s.wf);
    d[tap] = gm::measure_delay(s.wf, out).mean_ps;
  }
  EXPECT_NEAR(d[1] - d[0], 33.0, 1.0);
  EXPECT_NEAR(d[2] - d[0], 70.0, 1.0);
  EXPECT_NEAR(d[3] - d[0], 95.0, 1.0);
}

TEST(CoarseDelay, OutputRegeneratedToFullSwing) {
  // Longest tap has the most trace loss; the mux output stage must still
  // deliver full logic levels.
  const auto s = stim();
  gc::CoarseDelayBlock blk(gc::CoarseDelayConfig{}, Rng(3));
  blk.select(3);
  const auto out = blk.process(s.wf);
  EXPECT_NEAR(out.peak_to_peak() / 2.0, 0.4, 0.05);
}

TEST(CoarseDelay, MidRunSwitchTakesEffect) {
  // Flipping the select lines between blocks mid-run must change the
  // delay for the rest of the run (the newly selected line starts from
  // its reset state; MidRunSwitchSettlesToTheSelectedTap bounds that
  // transient, and this measures from 300 ps after the switch).
  const auto s = stim(3.2, 64);
  gc::CoarseDelayBlock blk(gc::CoarseDelayConfig{}, Rng(4));
  blk.reset();
  gs::Waveform out(s.wf.t0_ps(), s.wf.dt_ps(), s.wf.size());
  const std::size_t half = s.wf.size() / 2;
  const double* in = s.wf.samples().data();
  double* dst = out.samples().data();
  blk.select(0);
  blk.process_block(in, dst, half, s.wf.dt_ps());
  blk.select(3);
  blk.process_block(in + half, dst + half, s.wf.size() - half, s.wf.dt_ps());
  const double t_half = out.time_at(half);
  gm::CrossingOptions early;
  early.settle_ps = 400.0;
  const auto ref_early = s.wf.slice(s.wf.t0_ps(), t_half);
  const auto out_early = out.slice(out.t0_ps(), t_half);
  const auto ref_late = s.wf.slice(t_half + 300.0, s.wf.t_end_ps());
  const auto out_late = out.slice(t_half + 300.0, out.t_end_ps());
  const double d_early = gm::measure_delay(ref_early, out_early, early).mean_ps;
  gm::CrossingOptions late;
  late.settle_ps = 100.0;
  const double d_late = gm::measure_delay(ref_late, out_late, late).mean_ps;
  EXPECT_NEAR(d_late - d_early, 99.0, 3.0);
}

TEST(CoarseDelay, MidRunSwitchSettlesToTheSelectedTap) {
  // Only the selected tap's line advances, so a line switched to mid-run
  // resumes from its own state, not from the fanout history it missed.
  // The documented transient: from 500 ps after a 0 -> 3 switch anywhere
  // in the record's middle half (mid-transition points included), the
  // output stays within 1 nV of a block that had tap 3 selected from the
  // start (same noise streams).
  const auto s = stim(3.2, 64);
  const std::size_t n = s.wf.size();
  const double dt = s.wf.dt_ps();
  const double* in = s.wf.samples().data();
  gc::CoarseDelayBlock ref_blk(gc::CoarseDelayConfig{}, Rng(4));
  ref_blk.select(3);
  const auto want = ref_blk.process(s.wf);
  constexpr std::size_t kSwitches = 40;
  const auto settle = static_cast<std::size_t>(500.0 / dt);
  std::size_t mid_transition = 0;
  std::vector<double> out(n);
  for (std::size_t k = 0; k < kSwitches; ++k) {
    const std::size_t at = n / 4 + k * (n / 2) / (kSwitches - 1);
    mid_transition += std::abs(in[at]) < 0.3;
    gc::CoarseDelayBlock blk(gc::CoarseDelayConfig{}, Rng(4));
    blk.reset();
    blk.select(0);
    blk.process_block(in, out.data(), at, dt);
    blk.select(3);
    blk.process_block(in + at, out.data() + at, n - at, dt);
    for (std::size_t i = at + settle; i < n; ++i)
      ASSERT_NEAR(out[i], want[i], 1e-9) << "switch at " << at << ", " << i;
  }
  EXPECT_GT(mid_transition, 0u);
}

TEST(CoarseDelay, NegativeTapLengthRejected) {
  gc::CoarseDelayConfig cfg;
  cfg.tap_error_ps = {-1.0, 0.0, 0.0, 0.0};
  EXPECT_THROW(gc::CoarseDelayBlock(cfg, Rng(1)), std::invalid_argument);
}

class CoarseTapSweep : public ::testing::TestWithParam<int> {};

TEST_P(CoarseTapSweep, EachTapDelaysByItsLength) {
  const int tap = GetParam();
  const auto s = stim(3.2, 48);
  gc::CoarseDelayBlock base(gc::CoarseDelayConfig{}, Rng(5));
  gc::CoarseDelayBlock blk(gc::CoarseDelayConfig{}, Rng(5));
  base.select(0);
  blk.select(tap);
  const double d0 = gm::measure_delay(s.wf, base.process(s.wf)).mean_ps;
  const double dt = gm::measure_delay(s.wf, blk.process(s.wf)).mean_ps;
  EXPECT_NEAR(dt - d0, 33.0 * tap, 1.5);
}

INSTANTIATE_TEST_SUITE_P(Taps, CoarseTapSweep, ::testing::Values(0, 1, 2, 3));
