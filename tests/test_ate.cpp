// Tests for the ATE substrate: channels, bus, DUT receiver, and the
// end-to-end deskew controller loop (the Fig. 2 scenario).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "ate/ate_channel.h"
#include "ate/bus.h"
#include "ate/controller.h"
#include "ate/dut.h"
#include "core/requirements.h"
#include "measure/delay_meter.h"
#include "signal/edges.h"
#include "util/rng.h"

namespace ga = gdelay::ate;
namespace gc = gdelay::core;
namespace gs = gdelay::sig;
namespace gm = gdelay::meas;
using gdelay::util::Rng;

TEST(AteChannel, LaunchOffsetCombinesSkewAndSteps) {
  ga::AteChannelConfig cfg;
  cfg.static_skew_ps = 37.0;
  cfg.programmable_step_ps = 100.0;
  ga::AteChannel ch(cfg, Rng(1));
  EXPECT_DOUBLE_EQ(ch.launch_offset_ps(), 37.0);
  ch.program_delay_steps(-1);
  EXPECT_DOUBLE_EQ(ch.launch_offset_ps(), -63.0);
}

TEST(AteChannel, StepsForRounds) {
  ga::AteChannelConfig cfg;
  ga::AteChannel ch(cfg, Rng(1));
  EXPECT_EQ(ch.steps_for(37.0), 0);
  EXPECT_EQ(ch.steps_for(70.0), 1);
  EXPECT_EQ(ch.steps_for(-149.0), -1);
  EXPECT_EQ(ch.steps_for(-151.0), -2);
  // Half a step rounds away from zero; the ends of int still fit.
  EXPECT_EQ(ch.steps_for(150.0), 2);
  EXPECT_EQ(ch.steps_for(-250.0), -3);
  EXPECT_EQ(ch.steps_for(100.0 * std::numeric_limits<int>::max()),
            std::numeric_limits<int>::max());
  EXPECT_EQ(ch.steps_for(100.0 * std::numeric_limits<int>::min()),
            std::numeric_limits<int>::min());
  // A step count outside int, or a delay that is not finite, throws.
  for (const double bad : {3e11, -3e11, std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW((void)ch.steps_for(bad), std::invalid_argument) << bad;
  // A tiny step makes any real skew an out-of-range count, not 0 steps.
  cfg.programmable_step_ps = 1e-300;
  EXPECT_THROW((void)ga::AteChannel(cfg, Rng(1)).steps_for(93.0),
               std::invalid_argument);
}

TEST(AteChannel, DriveAppliesSkewToEdges) {
  ga::AteChannelConfig cfg;
  cfg.static_skew_ps = 80.0;
  cfg.rj_sigma_ps = 0.0;
  ga::AteChannel ch(cfg, Rng(2));
  const auto r = ch.drive(gs::prbs(7, 32));
  ASSERT_FALSE(r.ideal_edges_ps.empty());
  // Actual edges lag the (unskewed) ideal grid by the skew.
  for (std::size_t i = 0; i < r.ideal_edges_ps.size(); ++i)
    EXPECT_NEAR(r.actual_edges_ps[i] - r.ideal_edges_ps[i], 80.0, 1e-9);
}

TEST(AteBus, DrawsSkewsWithinSpan) {
  ga::AteBusConfig cfg;
  cfg.n_channels = 8;
  cfg.skew_span_ps = 300.0;
  ga::AteBus bus(cfg, Rng(3));
  for (int i = 0; i < bus.n_channels(); ++i) {
    EXPECT_LE(std::abs(bus.channel(i).static_skew_ps()), 150.0);
  }
  EXPECT_GT(bus.launch_skew_span_ps(), 0.0);
  EXPECT_LE(bus.launch_skew_span_ps(), 300.0);
}

TEST(AteBus, NativeDeskewLeavesQuantizationResidue) {
  // The paper's motivation: the ATE's own deskew (100 ps steps) cannot do
  // better than +/- half a step.
  ga::AteBusConfig cfg;
  cfg.n_channels = 8;
  cfg.skew_span_ps = 400.0;
  ga::AteBus bus(cfg, Rng(4));
  const double before = bus.launch_skew_span_ps();
  bus.apply_native_deskew();
  const double after = bus.launch_skew_span_ps();
  EXPECT_LT(after, before);
  EXPECT_LE(after, 100.0 + 1e-9);  // within one step
  EXPECT_GT(after, 5.0);           // but nowhere near ps-level
}

TEST(DutReceiver, SamplesBitsAtStrobes) {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const gs::BitPattern bits{1, 0, 1, 1, 0, 0, 1, 0};
  const auto r = gs::synthesize_nrz(bits, sc);
  ga::DutReceiver rx;
  std::vector<double> strobes;
  const double first_center = sc.lead_in_ps + 0.5 * r.unit_interval_ps;
  for (std::size_t i = 0; i < bits.size(); ++i)
    strobes.push_back(first_center + r.unit_interval_ps * static_cast<double>(i));
  const auto res = rx.sample(r.wf, strobes);
  EXPECT_EQ(res.bits, bits);
  EXPECT_EQ(res.violations, 0u);
}

TEST(DutReceiver, FlagsSetupHoldViolations) {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto r = gs::synthesize_nrz(gs::alternating(16), sc);
  ga::DutReceiverConfig cfg;
  cfg.setup_ps = 20.0;
  cfg.hold_ps = 20.0;
  ga::DutReceiver rx(cfg);
  // Strobe exactly on the edges: every strobe violates.
  std::vector<double> strobes;
  for (int i = 1; i < 8; ++i)
    strobes.push_back(sc.lead_in_ps + r.unit_interval_ps * i);
  const auto res = rx.sample(r.wf, strobes);
  EXPECT_EQ(res.violations, strobes.size());
}

TEST(DutReceiver, BestAlignmentToleratesLatencyShift) {
  const gs::BitPattern expected{1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  gs::BitPattern got(expected.begin() + 2, expected.end());  // shifted by 2
  got.push_back(0);
  got.push_back(1);
  EXPECT_EQ(ga::DutReceiver::best_alignment_errors(got, expected), 0u);
}

TEST(DutReceiver, PhaseScanFindsOpenWindow) {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto bits = gs::prbs(7, 48);
  const auto r = gs::synthesize_nrz(bits, sc);
  ga::DutReceiver rx;
  const auto scan = rx.scan_phase(r.wf, bits, r.unit_interval_ps,
                                  sc.lead_in_ps, 40, 32);
  // Clean signal: a wide open window (most of the UI minus setup/hold).
  EXPECT_GT(scan.window_ps, 0.5 * r.unit_interval_ps);
  EXPECT_EQ(scan.points.size(), 32u);
}

TEST(DutReceiver, IntersectionShrinksWindow) {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto bits = gs::prbs(7, 48);
  const auto a = gs::synthesize_nrz(bits, sc);
  ga::DutReceiver rx;
  const double ui = a.unit_interval_ps;
  const auto sa = rx.scan_phase(a.wf, bits, ui, sc.lead_in_ps, 40, 32);
  // Second channel shifted by half a UI: individually open, jointly
  // nearly closed.
  const auto sb = rx.scan_phase(a.wf.shifted(ui / 2.0), bits, ui,
                                sc.lead_in_ps, 40, 32);
  const auto both = ga::intersect_scans({sa, sb}, ui);
  EXPECT_LT(both.window_ps, std::min(sa.window_ps, sb.window_ps) * 0.6);
}

TEST(DutReceiver, IntersectionRejectsScansWithoutPointsAndBadUi) {
  // 0 points would make the window 0 * ui / 0: NaN, not a width.
  EXPECT_THROW(ga::intersect_scans({ga::PhaseScan{}, ga::PhaseScan{}}, 100.0),
               std::invalid_argument);
  ga::PhaseScan scan;
  scan.points.resize(4);
  EXPECT_NO_THROW(ga::intersect_scans({scan}, 100.0));
  for (const double ui : {0.0, -100.0})
    EXPECT_THROW(ga::intersect_scans({scan}, ui), std::invalid_argument) << ui;
}

TEST(DeskewController, EndToEndMeetsSkewRequirement) {
  // The headline application: a 4-lane 6.4 Gbps bus with +/-100 ps skew,
  // deskewed to < 5 ps channel-to-channel through the delay channels.
  ga::AteBusConfig bc;
  bc.n_channels = 4;
  bc.rate_gbps = 6.4;
  bc.skew_span_ps = 120.0;  // within the 140 ps corrector range
  bc.rj_sigma_ps = 0.8;
  ga::AteBus bus(bc, Rng(11));

  std::vector<gc::VariableDelayChannel> delays;
  Rng rng(12);
  for (int i = 0; i < bc.n_channels; ++i)
    delays.emplace_back(gc::ChannelConfig::prototype(),
                        rng.fork(static_cast<std::uint64_t>(i)));

  ga::DeskewController::Options opt;
  opt.training = gs::prbs(7, 96);
  opt.calibration.n_vctrl_points = 9;
  ga::DeskewController ctl(bus, delays, opt);
  const auto rep = ctl.run();

  EXPECT_GT(rep.span_before_ps, 30.0);
  EXPECT_TRUE(rep.plan.feasible);
  EXPECT_LT(rep.span_after_ps, gc::Requirements::kChannelSkewPs);
  EXPECT_LT(rep.span_after_ps, rep.span_before_ps / 5.0);
}

TEST(DeskewController, ArrivalsMatchSoloPasses) {
  // measure_arrivals() drives every lane, then runs the launched
  // waveforms through their delay channels in one lane_edges() call. On
  // copies of the bus and the delays, the one-lane-at-a-time loop (drive,
  // process, measure_delay per channel) must give the same bits, call
  // after call (each lane's RJ draws move on).
  ga::AteBusConfig bc;
  bc.n_channels = 6;
  bc.skew_span_ps = 200.0;
  bc.rj_sigma_ps = 0.8;
  ga::AteBus bus(bc, Rng(21));
  std::vector<gc::VariableDelayChannel> delays;
  Rng rng(22);
  for (int i = 0; i < bc.n_channels; ++i) {
    delays.emplace_back(gc::ChannelConfig::prototype(),
                        rng.fork(static_cast<std::uint64_t>(i)));
    delays.back().select_tap(i % 4);
    delays.back().set_vctrl(delays.back().vctrl_max() * i / 6.0);
  }
  ga::AteBus solo_bus = bus;
  auto solo_delays = delays;
  ga::DeskewController::Options opt;
  opt.training = gs::prbs(7, 64);
  ga::DeskewController ctl(bus, delays, opt);

  gs::SynthConfig sc = bc.synth;
  sc.rate_gbps = bc.rate_gbps;
  const auto reference = gs::synthesize_nrz(opt.training, sc).wf;
  gm::CrossingOptions mo;
  mo.settle_ps = opt.calibration.settle_ps;
  for (int pass = 0; pass < 2; ++pass) {
    const auto got = ctl.measure_arrivals();
    ASSERT_EQ(got.size(), delays.size());
    for (int i = 0; i < bc.n_channels; ++i) {
      const auto launched = solo_bus.channel(i).drive(opt.training);
      const auto received =
          solo_delays[static_cast<std::size_t>(i)].process(launched.wf);
      const double want =
          gm::measure_delay(reference, received, mo).mean_ps;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(want),
                std::bit_cast<std::uint64_t>(got[static_cast<std::size_t>(i)]))
          << "pass " << pass << " lane " << i;
    }
  }
}

TEST(DeskewController, RequiresMatchingChannelCount) {
  ga::AteBusConfig bc;
  bc.n_channels = 2;
  ga::AteBus bus(bc, Rng(1));
  std::vector<gc::VariableDelayChannel> delays;
  delays.emplace_back(gc::ChannelConfig{}, Rng(2));
  EXPECT_THROW(ga::DeskewController(bus, delays), std::invalid_argument);
}
