// Tests for waveform synthesis and edge extraction.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "signal/edges.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace gs = gdelay::sig;
using gdelay::util::Rng;

namespace {

gs::SynthConfig base_config(double rate = 3.2) {
  gs::SynthConfig c;
  c.rate_gbps = rate;
  return c;
}

}  // namespace

TEST(Synth, RejectsBadConfig) {
  gs::SynthConfig c = base_config();
  c.rate_gbps = 0.0;
  EXPECT_THROW(gs::synthesize_nrz({0, 1}, c), std::invalid_argument);
  c = base_config();
  c.dt_ps = 0.0;
  EXPECT_THROW(gs::synthesize_nrz({0, 1}, c), std::invalid_argument);
  EXPECT_THROW(gs::synthesize_nrz({}, base_config()), std::invalid_argument);
}

TEST(Synth, JitterWithoutRngThrows) {
  gs::SynthConfig c = base_config();
  c.rj_sigma_ps = 1.0;
  EXPECT_THROW(gs::synthesize_nrz({0, 1, 0}, c, nullptr),
               std::invalid_argument);
}

TEST(Synth, LevelsMatchAmplitude) {
  gs::SynthConfig c = base_config();
  const auto r = gs::synthesize_nrz(gs::alternating(16), c);
  EXPECT_NEAR(r.wf.max_value(), c.amplitude_v, 0.02);
  EXPECT_NEAR(r.wf.min_value(), -c.amplitude_v, 0.02);
}

TEST(Synth, EdgeTimingAccuracy) {
  // Without jitter, extracted 50 % crossings must land on the nominal
  // edge grid to well below a tenth of a picosecond.
  gs::SynthConfig c = base_config(6.4);
  const auto r = gs::synthesize_nrz(gs::prbs(7, 48), c);
  const auto edges = gs::extract_edges(r.wf);
  ASSERT_EQ(edges.size(), r.ideal_edges_ps.size());
  for (std::size_t i = 0; i < edges.size(); ++i)
    EXPECT_NEAR(edges[i].t_ps, r.ideal_edges_ps[i], 0.05);
}

TEST(Synth, EdgePolaritySequence) {
  gs::SynthConfig c = base_config();
  const auto r = gs::synthesize_nrz({0, 1, 1, 0, 1}, c);
  const auto edges = gs::extract_edges(r.wf);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_TRUE(edges[0].rising);
  EXPECT_FALSE(edges[1].rising);
  EXPECT_TRUE(edges[2].rising);
}

TEST(Synth, RiseTime2080) {
  gs::SynthConfig c = base_config(1.0);  // slow rate: isolated edge
  c.rise_time_ps = 40.0;
  const auto r = gs::synthesize_nrz({0, 1}, c);
  const double a = c.amplitude_v;
  // Locate 20 % / 80 % crossings around the single edge.
  double t20 = 0.0, t80 = 0.0;
  for (std::size_t i = 1; i < r.wf.size(); ++i) {
    if (r.wf[i - 1] < -0.6 * a && r.wf[i] >= -0.6 * a)
      t20 = r.wf.time_at(i);
    if (r.wf[i - 1] < 0.6 * a && r.wf[i] >= 0.6 * a) {
      t80 = r.wf.time_at(i);
      break;
    }
  }
  EXPECT_NEAR(t80 - t20, 40.0, 2.0);
}

TEST(Synth, RandomJitterStatistics) {
  gs::SynthConfig c = base_config(3.2);
  c.rj_sigma_ps = 2.0;
  Rng rng(3);
  const auto r = gs::synthesize_nrz(gs::prbs(7, 400), c, &rng);
  ASSERT_EQ(r.actual_edges_ps.size(), r.ideal_edges_ps.size());
  double acc = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < r.actual_edges_ps.size(); ++i) {
    const double d = r.actual_edges_ps[i] - r.ideal_edges_ps[i];
    acc += d;
    sq += d * d;
  }
  const double n = static_cast<double>(r.actual_edges_ps.size());
  const double mean = acc / n;
  const double sd = std::sqrt(sq / n - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.5);
  EXPECT_NEAR(sd, 2.0, 0.4);
}

TEST(Synth, SinusoidalDj) {
  gs::SynthConfig c = base_config(3.2);
  c.dj_pp_ps = 10.0;
  const auto r = gs::synthesize_nrz(gs::alternating(256), c);
  double lo = 1e9, hi = -1e9;
  for (std::size_t i = 0; i < r.actual_edges_ps.size(); ++i) {
    const double d = r.actual_edges_ps[i] - r.ideal_edges_ps[i];
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_NEAR(hi - lo, 10.0, 1.0);
}

TEST(Synth, ClockFrequency) {
  gs::SynthConfig c = base_config();
  const auto r = gs::synthesize_clock(5.0, 20, c);  // 5 GHz -> 200 ps period
  const auto edges = gs::extract_edges(r.wf);
  ASSERT_GE(edges.size(), 10u);
  for (std::size_t i = 1; i < edges.size(); ++i)
    EXPECT_NEAR(edges[i].t_ps - edges[i - 1].t_ps, 100.0, 1.0);
  EXPECT_DOUBLE_EQ(r.unit_interval_ps, 100.0);  // half period
}

TEST(Synth, RjSigmaForTjPp) {
  // pp ~= 2 sigma sqrt(2 ln n): round-trip sanity.
  const double sigma = gs::rj_sigma_for_tj_pp(10.0, 1000);
  EXPECT_NEAR(2.0 * sigma * std::sqrt(2.0 * std::log(1000.0)), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(gs::rj_sigma_for_tj_pp(0.0, 100), 0.0);
}

TEST(Edges, HysteresisSuppressesChatter) {
  // A slow ramp with noise around the threshold: without hysteresis many
  // crossings, with hysteresis exactly one.
  Rng rng(9);
  auto wf = gs::Waveform::from_function(
      0.0, 1.0, 400, [](double t) { return (t - 200.0) * 0.002; });
  for (std::size_t i = 0; i < wf.size(); ++i) wf[i] += rng.gaussian(0.0, 0.05);
  gs::EdgeExtractOptions no_hyst;
  gs::EdgeExtractOptions hyst;
  hyst.hysteresis_v = 0.25;
  EXPECT_GT(gs::extract_edges(wf, no_hyst).size(), 1u);
  EXPECT_EQ(gs::extract_edges(wf, hyst).size(), 1u);
}

TEST(Edges, TimeWindowFilter) {
  gs::SynthConfig c = base_config(1.0);
  const auto r = gs::synthesize_nrz(gs::alternating(10), c);
  gs::EdgeExtractOptions opt;
  opt.t_min_ps = 2000.0;
  for (const auto& e : gs::extract_edges(r.wf, opt))
    EXPECT_GE(e.t_ps, 2000.0);
  // An infinite sample before a crossing interpolates to a NaN time,
  // which fails the window and is dropped; the next crossing stays.
  const double inf = std::numeric_limits<double>::infinity();
  const gs::Waveform spike(0.0, 1.0, std::vector<double>{-inf, 1.0, -1.0});
  const auto edges = gs::extract_edges(spike);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_FALSE(edges[0].rising);
  EXPECT_DOUBLE_EQ(edges[0].t_ps, 1.5);
}

TEST(Edges, HelperFilters) {
  std::vector<gs::Edge> edges{{1.0, true}, {2.0, false}, {3.0, true}};
  EXPECT_EQ(gs::edge_times(edges).size(), 3u);
  EXPECT_EQ(gs::rising_times(edges), (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(gs::falling_times(edges), (std::vector<double>{2.0}));
}
