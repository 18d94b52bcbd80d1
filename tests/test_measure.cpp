// Tests for the measurement substrate: stats, histogram, jitter analyzer,
// delay meter.
#include <gtest/gtest.h>

#include <cmath>

#include "measure/delay_meter.h"
#include "measure/histogram.h"
#include "measure/jitter.h"
#include "measure/stats.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace gm = gdelay::meas;
namespace gs = gdelay::sig;
using gdelay::util::Rng;

TEST(Stats, Summary) {
  const auto s = gm::summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.peak_to_peak(), 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(1.25), 1e-12);
}

TEST(Stats, EmptyIsZero) {
  const auto s = gm::summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Histogram, BinningAndCounts) {
  gm::Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(0.7);
  h.add(9.99);
  h.add(-1.0);
  h.add(10.0);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(gm::Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(gm::Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Jitter, CleanGridHasZeroTj) {
  std::vector<double> ts;
  for (int i = 0; i < 50; ++i) ts.push_back(100.0 + 156.25 * i);
  const auto rep = gm::analyze_jitter(ts, 156.25);
  EXPECT_EQ(rep.n_edges, 50u);
  EXPECT_NEAR(rep.tj_pp_ps, 0.0, 1e-9);
  EXPECT_NEAR(rep.rj_rms_ps, 0.0, 1e-9);
}

TEST(Jitter, RecoversKnownGaussianJitter) {
  Rng rng(11);
  std::vector<double> ts;
  for (int i = 0; i < 4000; ++i)
    ts.push_back(100.0 + 156.25 * i + rng.gaussian(0.0, 2.0));
  const auto rep = gm::analyze_jitter(ts, 156.25);
  EXPECT_NEAR(rep.rj_rms_ps, 2.0, 0.15);
  // pp of 4000 Gaussians ~ 2 * sigma * sqrt(2 ln 4000) ~ 16.3 ps.
  EXPECT_NEAR(rep.tj_pp_ps, 16.3, 3.5);
}

TEST(Jitter, PhaseWrapHandled) {
  // Crossings sitting exactly at the fold boundary must not split into
  // two clusters: put the grid phase at 0 (worst case).
  Rng rng(13);
  std::vector<double> ts;
  for (int i = 0; i < 1000; ++i)
    ts.push_back(156.25 * i + rng.gaussian(0.0, 1.0));
  const auto rep = gm::analyze_jitter(ts, 156.25);
  EXPECT_NEAR(rep.rj_rms_ps, 1.0, 0.15);
  EXPECT_LT(rep.tj_pp_ps, 20.0);  // a split would give ~UI
}

TEST(Jitter, SquareDjShowsInTotalJitter) {
  // Alternating +/-5 ps offsets (square DJ): TJ = 10 ps exactly; the
  // residual stddev equals the DJ amplitude.
  std::vector<double> ts;
  for (int i = 0; i < 500; ++i)
    ts.push_back(156.25 * i + ((i & 1) ? 5.0 : -5.0));
  const auto rep = gm::analyze_jitter(ts, 156.25);
  EXPECT_NEAR(rep.tj_pp_ps, 10.0, 0.1);
  EXPECT_NEAR(rep.rj_rms_ps, 5.0, 0.1);
}

TEST(Jitter, DualDiracNearZeroForPureGaussian) {
  // For pure Gaussian jitter the deterministic estimate stays near zero:
  // observed pp matches the Gaussian-expected pp at this population.
  Rng rng(19);
  std::vector<double> ts;
  for (int i = 0; i < 2000; ++i)
    ts.push_back(156.25 * i + rng.gaussian(0.0, 2.0));
  const auto rep = gm::analyze_jitter(ts, 156.25);
  EXPECT_LT(rep.dj_pp_ps, 0.35 * rep.tj_pp_ps);
}

TEST(Jitter, MeasureFromWaveform) {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  sc.rj_sigma_ps = 1.5;
  Rng rng(7);
  const auto r = gs::synthesize_nrz(gs::prbs(7, 300), sc, &rng);
  const auto rep = gm::measure_jitter(r.wf, r.unit_interval_ps);
  EXPECT_NEAR(rep.rj_rms_ps, 1.5, 0.3);
}

TEST(Jitter, RejectsBadUi) {
  EXPECT_THROW(gm::analyze_jitter({1.0}, 0.0), std::invalid_argument);
}

TEST(DelayMeter, RecoversPureShift) {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto r = gs::synthesize_nrz(gs::prbs(7, 64), sc);
  const auto shifted = r.wf.shifted(42.0);
  const auto d = gm::measure_delay(r.wf, shifted);
  EXPECT_NEAR(d.mean_ps, 42.0, 1e-6);
  EXPECT_NEAR(d.stddev_ps, 0.0, 1e-6);
  EXPECT_GT(d.n_edges, 10u);
}

TEST(DelayMeter, ShiftLargerThanUi) {
  // Order-based pairing: latency of several UIs is measured exactly.
  gs::SynthConfig sc;
  sc.rate_gbps = 6.4;
  const auto r = gs::synthesize_nrz(gs::prbs(7, 64), sc);
  const auto d = gm::measure_delay(r.wf, r.wf.shifted(400.0));
  EXPECT_NEAR(d.mean_ps, 400.0, 1e-6);
}

TEST(DelayMeter, EdgesApiDirect) {
  const std::vector<gs::Edge> ref{
      {100.0, true}, {200.0, false}, {350.0, true}, {500.0, false}};
  const std::vector<gs::Edge> out{
      {110.0, true}, {210.0, false}, {360.0, true}, {510.0, false}};
  const auto d = gm::measure_delay_edges(ref, out);
  EXPECT_NEAR(d.mean_ps, 10.0, 1e-9);
  EXPECT_EQ(d.n_edges, 4u);
}

TEST(DelayMeter, EmptyEdgesThrow) {
  EXPECT_THROW(gm::measure_delay_edges({}, {{1.0, true}}),
               std::runtime_error);
}

TEST(DelayMeter, WrapDelay) {
  EXPECT_DOUBLE_EQ(gm::wrap_delay(10.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(gm::wrap_delay(60.0, 100.0), -40.0);
  EXPECT_DOUBLE_EQ(gm::wrap_delay(-60.0, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(gm::wrap_delay(250.0, 100.0), -50.0);
}

TEST(DelayMeter, PhaseDelayOnClock) {
  gs::SynthConfig sc;
  const auto r = gs::synthesize_clock(5.0, 40, sc);
  const double shift = 13.0;
  const double d =
      gm::measure_phase_delay(r.wf, r.wf.shifted(shift), r.unit_interval_ps);
  EXPECT_NEAR(d, shift, 0.05);
}

TEST(DelayMeter, PhaseDelayWraps) {
  gs::SynthConfig sc;
  const auto r = gs::synthesize_clock(5.0, 40, sc);  // ui = 100 ps
  // 113 ps shift is indistinguishable from 13 ps on a clock.
  const double d =
      gm::measure_phase_delay(r.wf, r.wf.shifted(113.0), r.unit_interval_ps);
  EXPECT_NEAR(d, 13.0, 0.05);
}
