// The determinism contract of the parallel calibration engine: a
// GDELAY_THREADS=1 run and an N-thread run of the same bring-up flow
// must produce byte-identical calibration results. CI runs this suite
// with GDELAY_THREADS=4 as well; the explicit set_thread_count calls
// below make the comparison self-contained either way.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/batch.h"
#include "core/board.h"
#include "core/calibration.h"
#include "core/fine_delay.h"
#include "measure/sinks.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace gc = gdelay::core;
namespace gm = gdelay::meas;
namespace gs = gdelay::sig;
namespace gu = gdelay::util;
using gdelay::util::Rng;

namespace {

::testing::AssertionResult bits_equal(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ bitwise";
}

void expect_identical(const gc::ChannelCalibration& a,
                      const gc::ChannelCalibration& b) {
  EXPECT_TRUE(bits_equal(a.base_latency_ps, b.base_latency_ps));
  for (std::size_t t = 0; t < 4; ++t)
    EXPECT_TRUE(bits_equal(a.tap_offset_ps[t], b.tap_offset_ps[t]));
  ASSERT_EQ(a.fine_curve.xs().size(), b.fine_curve.xs().size());
  for (std::size_t i = 0; i < a.fine_curve.xs().size(); ++i) {
    EXPECT_TRUE(bits_equal(a.fine_curve.xs()[i], b.fine_curve.xs()[i]));
    EXPECT_TRUE(bits_equal(a.fine_curve.ys()[i], b.fine_curve.ys()[i]));
  }
}

gs::SynthResult stimulus() {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  return gs::synthesize_nrz(gs::prbs(7, 48), sc);
}

}  // namespace

TEST(ParallelDeterminism, BoardCalibrateIsBitIdenticalAcrossThreadCounts) {
  const auto stim = stimulus();
  gc::DelayBoardConfig bcfg;
  bcfg.n_channels = 3;
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 5;

  gc::DelayBoard board(bcfg, Rng(42));
  gu::set_thread_count(1);
  const std::vector<gc::ChannelCalibration> serial =
      board.calibrate(stim.wf, o);

  for (int threads : {2, 4, 8}) {
    gu::set_thread_count(threads);
    const std::vector<gc::ChannelCalibration> parallel =
        board.calibrate(stim.wf, o);
    ASSERT_EQ(serial.size(), parallel.size()) << threads << " threads";
    for (std::size_t c = 0; c < serial.size(); ++c)
      expect_identical(serial[c], parallel[c]);
  }
  gu::set_thread_count(1);
}

TEST(ParallelDeterminism, FineCurveSweepIsBitIdenticalAcrossThreadCounts) {
  const auto stim = stimulus();
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(7));
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 7;
  const gc::DelayCalibrator cal(o);

  gu::set_thread_count(1);
  const auto serial = cal.measure_fine_curve(line, stim.wf);
  gu::set_thread_count(4);
  const auto parallel = cal.measure_fine_curve(line, stim.wf);
  gu::set_thread_count(1);

  ASSERT_EQ(serial.xs().size(), parallel.xs().size());
  for (std::size_t i = 0; i < serial.xs().size(); ++i) {
    EXPECT_TRUE(bits_equal(serial.xs()[i], parallel.xs()[i]));
    EXPECT_TRUE(bits_equal(serial.ys()[i], parallel.ys()[i]));
  }
}

TEST(ParallelDeterminism, CalibrationLeavesTheChannelUntouched) {
  const auto stim = stimulus();
  gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(3));
  ch.select_tap(2);
  ch.set_vctrl(0.9);
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 5;
  gu::set_thread_count(4);
  (void)gc::DelayCalibrator(o).calibrate(ch, stim.wf);
  gu::set_thread_count(1);
  EXPECT_EQ(ch.selected_tap(), 2);
  EXPECT_DOUBLE_EQ(ch.vctrl(), 0.9);
}

TEST(ParallelDeterminism, BatchedTrialsDrawTheSameNoiseStreamsAsSolo) {
  // MC-style trials built from fork_noise(i) substreams must see exactly
  // the same Gaussian draw sequence whether they run one at a time or
  // ride interleaved lanes of the batched executor — and distinct lanes
  // must stay decorrelated (different substream, different noise).
  const auto stim = stimulus();
  constexpr std::size_t kTrials = 5;

  std::vector<gc::FineDelayLine> solo, batched;
  for (std::size_t i = 0; i < kTrials; ++i) {
    gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(21));
    line.fork_noise(i);
    line.set_vctrl(0.6);
    solo.push_back(line);
    batched.push_back(line);
  }

  std::vector<gs::Waveform> ref;
  for (auto& line : solo) ref.push_back(line.process(stim.wf));

  std::vector<gc::FineDelayLine*> lanes;
  for (auto& line : batched) lanes.push_back(&line);
  std::vector<gm::WaveformCaptureSink> caps(kTrials);
  std::vector<gm::ISampleSink*> sinks;
  for (auto& c : caps) sinks.push_back(&c);
  gc::run_lanes(lanes, stim.wf, sinks);
  std::vector<gs::Waveform> outs;
  for (const auto& c : caps) outs.push_back(c.waveform());

  ASSERT_EQ(outs.size(), kTrials);
  for (std::size_t i = 0; i < kTrials; ++i) {
    ASSERT_EQ(outs[i].size(), ref[i].size());
    EXPECT_EQ(std::memcmp(outs[i].samples().data(), ref[i].samples().data(),
                          outs[i].size() * sizeof(double)),
              0)
        << "stream " << i << " diverged from its solo run";
  }
  for (std::size_t i = 1; i < kTrials; ++i)
    EXPECT_NE(std::memcmp(outs[0].samples().data(), outs[i].samples().data(),
                          outs[0].size() * sizeof(double)),
              0)
        << "stream " << i << " not decorrelated from stream 0";
}

TEST(ParallelDeterminism, RepeatedCalibrationOfSameChannelIsIdentical) {
  // Clone-based sweeps never advance the device's own RNG, so
  // calibration is a pure function of (channel, stimulus).
  const auto stim = stimulus();
  gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(11));
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 5;
  const gc::DelayCalibrator cal(o);
  gu::set_thread_count(2);
  const auto first = cal.calibrate(ch, stim.wf);
  const auto second = cal.calibrate(ch, stim.wf);
  gu::set_thread_count(1);
  expect_identical(first, second);
}
