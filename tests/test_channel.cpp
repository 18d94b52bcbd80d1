// Tests for the combined channel (Fig. 10), the DAC and the calibration
// engine — programming-accuracy and range requirements.
#include <gtest/gtest.h>

#include "core/calibration.h"
#include "core/channel.h"
#include "core/dac.h"
#include "core/requirements.h"
#include "measure/delay_meter.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace gc = gdelay::core;
namespace gs = gdelay::sig;
namespace gm = gdelay::meas;
using gdelay::util::Rng;

namespace {

gs::SynthResult stim(double rate = 3.2, std::size_t bits = 64) {
  gs::SynthConfig sc;
  sc.rate_gbps = rate;
  return gs::synthesize_nrz(gs::prbs(7, bits), sc);
}

// Calibrating is the slow part; do it once for the whole suite.
struct CalFixture {
  gs::SynthResult s = stim();
  gc::VariableDelayChannel ch{gc::ChannelConfig::prototype(), Rng(42)};
  gc::ChannelCalibration cal;
  CalFixture() {
    gc::DelayCalibrator::Options o;
    o.n_vctrl_points = 13;
    cal = gc::DelayCalibrator(o).calibrate(ch, s.wf);
  }
};

CalFixture& fixture() {
  static CalFixture f;
  return f;
}

}  // namespace

TEST(Dac, Basics) {
  gc::Dac d;  // 12-bit, 1.5 V
  EXPECT_EQ(d.bits(), 12);
  EXPECT_EQ(d.max_code(), 4095u);
  EXPECT_NEAR(d.lsb_v(), 1.5 / 4095.0, 1e-12);
  EXPECT_DOUBLE_EQ(d.voltage(0), 0.0);
  EXPECT_DOUBLE_EQ(d.voltage(4095), 1.5);
}

TEST(Dac, RoundTrip) {
  gc::Dac d;
  for (double v : {0.0, 0.1234, 0.75, 1.2, 1.5}) {
    EXPECT_NEAR(d.quantize(v), v, d.lsb_v() / 2.0 + 1e-12);
  }
}

TEST(Dac, Clamps) {
  gc::Dac d;
  EXPECT_EQ(d.code_for(-1.0), 0u);
  EXPECT_EQ(d.code_for(99.0), 4095u);
  EXPECT_DOUBLE_EQ(d.voltage(99999), 1.5);
}

TEST(Dac, RejectsBadConfig) {
  EXPECT_THROW(gc::Dac(2, 1.5), std::invalid_argument);
  EXPECT_THROW(gc::Dac(12, 0.0), std::invalid_argument);
}

TEST(Channel, ProgrammingInterface) {
  gc::VariableDelayChannel ch(gc::ChannelConfig{}, Rng(1));
  ch.select_tap(2);
  ch.set_vctrl(0.6);
  EXPECT_EQ(ch.selected_tap(), 2);
  EXPECT_DOUBLE_EQ(ch.vctrl(), 0.6);
  EXPECT_DOUBLE_EQ(ch.vctrl_max(), 1.5);
}

TEST(Channel, CalibrationRangesMatchPaper) {
  const auto& f = fixture();
  // Paper: fine ~50 ps, total ~140 ps (>= the 120 ps requirement).
  EXPECT_GT(f.cal.fine_range_ps(), 40.0);
  EXPECT_LT(f.cal.fine_range_ps(), 65.0);
  EXPECT_GT(f.cal.total_range_ps(), gc::Requirements::kTotalRangePs);
  EXPECT_LT(f.cal.total_range_ps(), 170.0);
}

TEST(Channel, CalibrationTapOffsets) {
  const auto& f = fixture();
  // Prototype trims: 0 / 33 / 70 / 95 ps (Fig. 9).
  EXPECT_NEAR(f.cal.tap_offset_ps[0], 0.0, 0.1);
  EXPECT_NEAR(f.cal.tap_offset_ps[1], 33.0, 1.5);
  EXPECT_NEAR(f.cal.tap_offset_ps[2], 70.0, 1.5);
  EXPECT_NEAR(f.cal.tap_offset_ps[3], 95.0, 1.5);
}

TEST(Channel, SubPicosecondResolution) {
  // 12-bit DAC over the fine curve: worst-case step well below 1 ps.
  const auto& f = fixture();
  EXPECT_LT(f.cal.resolution_ps(), gc::Requirements::kResolutionPs);
  EXPECT_GT(f.cal.resolution_ps(), 0.0);
}

TEST(Channel, FineCurveShapeMatchesFig7) {
  const auto& f = fixture();
  const auto& c = f.cal.fine_curve;
  EXPECT_TRUE(c.is_monotonic_increasing());
  // Mid-range slope flattens toward the extremes (Fig. 7): central slope
  // must exceed the average end-segment slope.
  const auto& xs = c.xs();
  const auto& ys = c.ys();
  const std::size_t n = xs.size();
  const double end_slope =
      ((ys[1] - ys[0]) / (xs[1] - xs[0]) +
       (ys[n - 1] - ys[n - 2]) / (xs[n - 1] - xs[n - 2])) / 2.0;
  EXPECT_GT(c.mid_slope(0.4), end_slope * 1.3);
}

TEST(Channel, PlanHitsTargetsAcrossRange) {
  const auto& f = fixture();
  for (double target : {5.0, 25.0, 50.0, 80.0, 110.0, 130.0}) {
    const auto s = f.cal.plan(target);
    EXPECT_NEAR(s.predicted_delay_ps, target, 0.5) << "target " << target;
    EXPECT_GE(s.tap, 0);
    EXPECT_LE(s.tap, 3);
  }
}

TEST(Channel, PlanClampsOutOfRange) {
  const auto& f = fixture();
  const auto lo = f.cal.plan(-50.0);
  EXPECT_NEAR(lo.predicted_delay_ps, 0.0, 1.5);
  const auto hi = f.cal.plan(1e6);
  EXPECT_NEAR(hi.predicted_delay_ps, f.cal.total_range_ps(), 1.5);
}

TEST(Channel, ProgrammedDelayVerifiedOnHardware) {
  // Close the loop: program a target through the plan and measure it on
  // the simulated channel. Error budget ~1 ps (measurement noise incl.).
  auto& f = fixture();
  for (double target : {20.0, 64.0, 105.0}) {
    const auto set = f.cal.plan(target);
    f.ch.select_tap(set.tap);
    f.ch.set_vctrl(set.vctrl_v);
    const auto out = f.ch.process(f.s.wf);
    const double rel =
        gm::measure_delay(f.s.wf, out).mean_ps - f.cal.base_latency_ps;
    EXPECT_NEAR(rel, target, 1.5) << "target " << target;
  }
}

TEST(Channel, PredictedLatencyConsistent) {
  const auto& f = fixture();
  const double lat = f.cal.base_latency_ps + f.cal.predicted_delay_ps(1, 0.75);
  EXPECT_NEAR(lat,
              f.cal.base_latency_ps + f.cal.tap_offset_ps[1] +
                  f.cal.fine_curve(0.75),
              1e-9);
  EXPECT_THROW(f.cal.predicted_delay_ps(9, 0.0), std::invalid_argument);
}

TEST(Channel, CalibrationRestoresProgramming) {
  gc::VariableDelayChannel ch(gc::ChannelConfig{}, Rng(9));
  ch.select_tap(3);
  ch.set_vctrl(1.1);
  const auto s = stim(3.2, 32);
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 5;
  (void)gc::DelayCalibrator(o).calibrate(ch, s.wf);
  EXPECT_EQ(ch.selected_tap(), 3);
  EXPECT_DOUBLE_EQ(ch.vctrl(), 1.1);
}

TEST(Channel, CalibratorValidatesOptions) {
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 2;
  gc::VariableDelayChannel ch(gc::ChannelConfig{}, Rng(9));
  const auto s = stim(3.2, 16);
  EXPECT_THROW(gc::DelayCalibrator(o).calibrate(ch, s.wf),
               std::invalid_argument);
}
