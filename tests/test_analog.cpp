// Tests for the primitive analog elements.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "analog/buffer.h"
#include "analog/coupling.h"
#include "analog/primitives.h"
#include "analog/tline.h"
#include "signal/edges.h"
#include "signal/waveform.h"
#include "util/rng.h"
#include "util/units.h"

namespace ga = gdelay::analog;
namespace gs = gdelay::sig;
using gdelay::util::Rng;

namespace {
constexpr double kDt = 0.25;

gs::Waveform step_input(double level = 1.0, std::size_t n = 4000) {
  gs::Waveform w(0.0, kDt, n);
  for (std::size_t i = n / 4; i < n; ++i) w[i] = level;
  return w;
}

// One sample through a device: process_block() with n == 1.
template <typename E>
double step(E&& e, double vin, double dt_ps) {
  double out;
  e.process_block(&vin, &out, 1, dt_ps);
  return out;
}
}  // namespace

TEST(SinglePoleFilter, TimeConstant) {
  ga::SinglePoleFilter f(1.0);  // 1 GHz -> tau ~= 159.15 ps
  EXPECT_NEAR(f.tau_ps(), 159.15, 0.1);
  const auto out = f.process(step_input(1.0, 12000));  // 3 ns span
  // After exactly one tau from the step, output = 1 - e^-1.
  const double t_step = 3000.0 * kDt;  // n/4 * dt
  EXPECT_NEAR(out.value_at(t_step + f.tau_ps()), 1.0 - std::exp(-1.0), 0.01);
  // Settles eventually (>= 14 tau of headroom).
  EXPECT_NEAR(out[out.size() - 1], 1.0, 1e-3);
}

TEST(SinglePoleFilter, DtInvariance) {
  // Exact discretization: halving dt must not change the response shape.
  ga::SinglePoleFilter f1(2.0), f2(2.0);
  double y1 = 0.0, y2 = 0.0;
  for (int i = 0; i < 100; ++i) y1 = step(f1, 1.0, 1.0);
  for (int i = 0; i < 200; ++i) y2 = step(f2, 1.0, 0.5);
  EXPECT_NEAR(y1, y2, 1e-9);
}

TEST(SinglePoleFilter, RejectsBadBandwidth) {
  EXPECT_THROW(ga::SinglePoleFilter(0.0), std::invalid_argument);
}

TEST(SlewRateLimiter, RampSlope) {
  ga::SlewRateLimiter s(0.01);  // 10 mV/ps
  const auto out = s.process(step_input(1.0));
  // Find the ramp and check its slope.
  const double t_step = 1000.0 * kDt;
  EXPECT_NEAR(out.value_at(t_step + 50.0), 0.5, 0.01);
  EXPECT_NEAR(out.value_at(t_step + 100.0), 1.0, 0.01);
}

TEST(SlewRateLimiter, PassesSlowSignals) {
  ga::SlewRateLimiter s(1.0);  // very fast
  auto in = gs::Waveform::from_function(0.0, kDt, 1000, [](double t) {
    return 0.3 * std::sin(2.0 * gdelay::util::kPi * t / 500.0);
  });
  const auto out = s.process(in);
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_NEAR(out[i], in[i], 1e-6);
}

TEST(SlewRateLimiter, LinearRegionSettlesExponentially) {
  // With tau_lin, a small step (below S * tau_lin) never hits the slew
  // clamp and settles like a one-pole.
  ga::SlewRateLimiter s(0.01, 20.0);
  double y = step(s, 0.0, 0.25);  // first sample snaps to the input (0)
  for (int i = 0; i < 80; ++i) y = step(s, 0.1, 0.25);  // 20 ps elapsed
  EXPECT_NEAR(y, 0.1 * (1.0 - std::exp(-1.0)), 0.01);
}

TEST(SlewRateLimiter, FirstSampleSnaps) {
  ga::SlewRateLimiter s(0.001);
  EXPECT_DOUBLE_EQ(step(s, 0.7, 0.25), 0.7);
}

TEST(TanhLimiter, SmallSignalGain) {
  ga::TanhLimiter t(3.0, 0.5);
  EXPECT_NEAR(step(t, 0.01, kDt), 0.03, 1e-4);
}

TEST(TanhLimiter, Saturates) {
  ga::TanhLimiter t(3.0, 0.5);
  EXPECT_LT(step(t, 10.0, kDt), 0.5 + 1e-9);
  EXPECT_GT(step(t, -10.0, kDt), -0.5 - 1e-9);
  EXPECT_NEAR(step(t, 10.0, kDt), 0.5, 1e-6);
}

TEST(FractionalDelay, IntegerDelay) {
  ga::FractionalDelay d(5.0);
  // Feed a ramp at dt=1: output must be input delayed by exactly 5.
  std::vector<double> out;
  for (int i = 0; i < 20; ++i)
    out.push_back(step(d, static_cast<double>(i), 1.0));
  for (int i = 6; i < 20; ++i) EXPECT_NEAR(out[static_cast<std::size_t>(i)], i - 5.0, 1e-9);
}

TEST(FractionalDelay, SubSampleDelay) {
  ga::FractionalDelay d(2.5);
  std::vector<double> out;
  for (int i = 0; i < 20; ++i)
    out.push_back(step(d, static_cast<double>(i), 1.0));
  for (int i = 4; i < 20; ++i) EXPECT_NEAR(out[static_cast<std::size_t>(i)], i - 2.5, 1e-9);
}

TEST(FractionalDelay, ZeroDelayPassesThrough) {
  ga::FractionalDelay d(0.0);
  EXPECT_DOUBLE_EQ(step(d, 0.42, 0.25), 0.42);
  EXPECT_DOUBLE_EQ(step(d, 0.43, 0.25), 0.43);
}

TEST(FractionalDelay, RejectsNonFiniteDt) {
  // NaN passes a `dt <= 0` test; the ring would be sized from NaN.
  for (double dt : {std::nan(""), HUGE_VAL})
    EXPECT_THROW(step(ga::FractionalDelay(33.0), 0.1, dt),
                 std::invalid_argument);
}

TEST(FractionalDelay, RejectsNonPositiveDt) {
  for (double dt : {0.0, -0.25})
    EXPECT_THROW(step(ga::FractionalDelay(33.0), 0.1, dt),
                 std::invalid_argument);
  ga::FractionalDelay running(33.0);  // also after a valid dt
  step(running, 0.1, 0.25);
  EXPECT_THROW(step(running, 0.1, -0.25), std::invalid_argument);
}

TEST(FractionalDelay, RejectsDtThatOverflowsTheRing) {
  // delay / dt beyond the size_t range: the slot count cannot be cast.
  for (double dt : {1e-300, std::numeric_limits<double>::denorm_min()})
    EXPECT_THROW(step(ga::FractionalDelay(33.0), 0.1, dt),
                 std::invalid_argument);
}

TEST(FractionalDelay, EdgeTimingThroughWaveform) {
  // A synthesized edge through a 33 ps line shifts by exactly 33 ps.
  ga::FractionalDelay d(33.0);
  auto in = step_input(0.8);
  in.scale(1.0, -0.4);  // center around 0
  const auto out = d.process(in);
  const auto ei = gs::extract_edges(in);
  const auto eo = gs::extract_edges(out);
  ASSERT_EQ(ei.size(), 1u);
  ASSERT_EQ(eo.size(), 1u);
  EXPECT_NEAR(eo[0].t_ps - ei[0].t_ps, 33.0, 0.01);
}

TEST(TransmissionLine, DelayAndLoss) {
  ga::TransmissionLineConfig cfg;
  cfg.delay_ps = 66.0;
  cfg.loss_db = 6.0206;  // factor 0.5
  ga::TransmissionLine t(cfg);
  auto in = step_input(0.8);
  in.scale(1.0, -0.4);
  const auto out = t.process(in);
  const auto ei = gs::extract_edges(in);
  const auto eo = gs::extract_edges(out);
  ASSERT_EQ(eo.size(), 1u);
  EXPECT_NEAR(eo[0].t_ps - ei[0].t_ps, 66.0, 0.01);
  EXPECT_NEAR(out[out.size() - 1], 0.2, 1e-3);  // 0.4 * 0.5
}

TEST(TransmissionLine, DispersionSlowsEdge) {
  ga::TransmissionLineConfig fast;
  fast.delay_ps = 10.0;
  ga::TransmissionLineConfig slow = fast;
  slow.dispersion_f3db_ghz = 3.0;
  auto in = step_input(0.8);
  in.scale(1.0, -0.4);
  const auto of = ga::TransmissionLine(fast).process(in);
  const auto os = ga::TransmissionLine(slow).process(in);
  // Dispersion delays the 50 % point further and rounds the edge.
  const auto ef = gs::extract_edges(of);
  const auto es = gs::extract_edges(os);
  ASSERT_EQ(ef.size(), 1u);
  ASSERT_EQ(es.size(), 1u);
  EXPECT_GT(es[0].t_ps, ef[0].t_ps + 10.0);
}

TEST(TraceLoss, ScalesWithLength) {
  EXPECT_DOUBLE_EQ(ga::trace_loss_db(0.0, 1.2), 0.0);
  EXPECT_DOUBLE_EQ(ga::trace_loss_db(100.0, 1.2), 1.2);
  EXPECT_DOUBLE_EQ(ga::trace_loss_db(50.0, 1.2), 0.6);
}

TEST(AcCoupler, BlocksDc) {
  ga::AcCoupler c(0.01);
  double y = 1.0;
  for (int i = 0; i < 400000; ++i) y = step(c, 1.0, 1.0);
  EXPECT_NEAR(y, 0.0, 1e-3);
}

TEST(AcCoupler, PassesFastEdges) {
  ga::AcCoupler c(0.001);  // 1 MHz corner: ~transparent at GHz
  step(c, 0.0, 0.25);
  const double y = step(c, 0.5, 0.25);  // step of 0.5 passes through
  EXPECT_NEAR(y, 0.5, 0.01);
}

TEST(AcCoupler, StartsSettled) {
  ga::AcCoupler c(0.01);
  EXPECT_DOUBLE_EQ(step(c, 5.0, 0.25), 0.0);  // DC at t=0 -> no kick
}

TEST(Attenuator, Factor) {
  ga::Attenuator a(6.0206);
  EXPECT_NEAR(a.factor(), 0.5, 1e-4);
  EXPECT_NEAR(step(a, 0.8, kDt), 0.4, 1e-4);
  EXPECT_THROW(ga::Attenuator(-1.0), std::invalid_argument);
}

TEST(NoiseSource, SigmaIndependentOfBandwidthAndDt) {
  for (double bw : {0.3, 3.0}) {
    for (double dt : {0.25, 1.0}) {
      ga::NoiseSource n(0.15, bw, Rng(17));
      std::vector<double> v(200000);
      n.process_block(v.data(), v.size(), dt);
      double sq = 0.0;
      for (double x : v) sq += x * x;
      EXPECT_NEAR(std::sqrt(sq / static_cast<double>(v.size())), 0.15, 0.015)
          << "bw=" << bw << " dt=" << dt;
    }
  }
}

TEST(NoiseSource, BandLimitingCorrelatesSamples) {
  // Lag-1 autocorrelation at dt << 1/bw must be high.
  ga::NoiseSource n(1.0, 0.3, Rng(21));
  std::vector<double> v(100001);
  n.process_block(v.data(), v.size(), 0.25);
  double c01 = 0.0, c00 = 0.0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    c01 += v[i - 1] * v[i];
    c00 += v[i - 1] * v[i - 1];
  }
  EXPECT_GT(c01 / c00, 0.9);
}

TEST(NoiseSource, WaveformRender) {
  ga::NoiseSource n(0.1, 1.0, Rng(2));
  gs::Waveform wf(0.0, 0.5, 100);
  n.process_block(wf.samples().data(), wf.size(), wf.dt_ps());
  EXPECT_GT(wf.peak_to_peak(), 0.0);
}

// ---- Copies: the deep-copy contract behind the copy-based sweeps --------

TEST(Clone, ContinuesByteIdenticallyFromMidRunState) {
  // Copy a device mid-run: original and copy must produce identical
  // bytes forever after (complete state capture, RNG stream included).
  gdelay::analog::VgaBufferConfig cfg;
  ga::VariableGainBuffer buf(cfg, Rng(7));
  const auto in = step_input(0.3, 2000);
  for (std::size_t i = 0; i < 1000; ++i) step(buf, in[i], kDt);
  ga::VariableGainBuffer copy = buf;
  for (std::size_t i = 1000; i < 2000; ++i) {
    const double a = step(buf, in[i], kDt);
    const double b = step(copy, in[i], kDt);
    ASSERT_EQ(a, b) << "copy diverged at sample " << i;
  }
}

TEST(Clone, ForkNoiseDecorrelatesClones) {
  // After fork_noise with distinct streams, two copies of one noisy
  // device must draw different noise (and deterministically so).
  const ga::LimitingBuffer src(ga::LimitingBufferConfig{}, Rng(3));
  ga::LimitingBuffer a = src, b = src;
  a.fork_noise(1);
  b.fork_noise(2);
  ga::LimitingBuffer a2 = a;  // same stream as a: must match a exactly
  int diff_ab = 0;
  for (int i = 0; i < 64; ++i) {
    const double va = step(a, 0.0, kDt);
    const double vb = step(b, 0.0, kDt);
    const double va2 = step(a2, 0.0, kDt);
    if (va != vb) ++diff_ab;
    ASSERT_EQ(va, va2);
  }
  EXPECT_GT(diff_ab, 60);
}
