// Edge-case coverage across modules: error paths, boundary conditions
// and accessor behaviour not exercised by the scenario tests.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "analog/buffer.h"
#include "analog/coupling.h"
#include "analog/differential.h"
#include "analog/primitives.h"
#include "ate/ate_channel.h"
#include "ate/bus.h"
#include "ate/cdr.h"
#include "ate/dut.h"
#include "core/batch.h"
#include "core/board.h"
#include "core/cal_io.h"
#include "core/calibration.h"
#include "core/channel.h"
#include "core/fine_delay.h"
#include "core/jitter_injector.h"
#include "measure/bathtub.h"
#include "measure/delay_meter.h"
#include "measure/eye.h"
#include "measure/histogram.h"
#include "measure/jitter.h"
#include "measure/sinks.h"
#include "signal/edges.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/curve.h"
#include "util/rng.h"

namespace gan = gdelay::analog;
namespace ga = gdelay::ate;
namespace gc = gdelay::core;
namespace gm = gdelay::meas;
namespace gs = gdelay::sig;
namespace gu = gdelay::util;
using gdelay::util::Rng;

TEST(EyeDiagramRaster, CountsLandInCorrectCells) {
  // A constant +0.4 V waveform fills exactly the top row across columns.
  gs::Waveform wf(0.0, 1.0, std::vector<double>(200, 0.4));
  gm::EyeDiagram eye(50.0, -0.5, 0.5, 10, 10);
  eye.accumulate(wf, 0.0, 0.0);
  EXPECT_EQ(eye.total(), 200u);
  std::size_t top = 0, rest = 0;
  for (std::size_t c = 0; c < eye.cols(); ++c) {
    top += eye.count(c, 8);  // 0.4 V -> bin floor((0.4+0.5)/0.1) = 9... row 9
    top += eye.count(c, 9);
    for (std::size_t r = 0; r < 8; ++r) rest += eye.count(c, r);
  }
  EXPECT_EQ(top, 200u);
  EXPECT_EQ(rest, 0u);
}

TEST(EyeDiagramRaster, OutOfRangeSamplesDropped) {
  gs::Waveform wf(0.0, 1.0, std::vector<double>(50, 2.0));  // above range
  gm::EyeDiagram eye(50.0, -0.5, 0.5, 8, 8);
  eye.accumulate(wf, 0.0, 0.0);
  EXPECT_EQ(eye.total(), 0u);
}

TEST(CurveEdge, TwoPointCurve) {
  gu::Curve c({0.0, 1.0}, {5.0, 15.0});
  EXPECT_DOUBLE_EQ(c.mid_slope(1.0), 10.0);
  EXPECT_DOUBLE_EQ(c.invert(10.0), 0.5);
  const auto m = c.monotonicized();
  EXPECT_DOUBLE_EQ(m(0.5), 10.0);
}

TEST(CurveEdge, FlatCurveInvertsToMidpoint) {
  gu::Curve c({0.0, 1.0, 2.0}, {3.0, 3.0, 3.0});
  // Flat is both non-decreasing and non-increasing; inversion picks a
  // well-defined point inside the domain.
  const double x = c.invert(3.0);
  EXPECT_GE(x, 0.0);
  EXPECT_LE(x, 2.0);
}

TEST(PhaseDelayEdge, ThrowsWithoutEdges) {
  gs::Waveform flat(0.0, 1.0, std::vector<double>(100, 0.3));
  gs::SynthConfig sc;
  const auto clk = gs::synthesize_clock(1.0, 10, sc);
  EXPECT_THROW(gm::measure_phase_delay(clk.wf, flat, 500.0),
               std::runtime_error);
  EXPECT_THROW(gm::measure_phase_delay(clk.wf, clk.wf, 0.0),
               std::invalid_argument);
}

TEST(CalIoEdge, DecreasingCurveSurvivesRoundTrip) {
  gc::ChannelCalibration cal;
  cal.fine_curve = gu::Curve({0.0, 1.0, 1.5}, {50.0, 20.0, 0.0});
  cal.tap_offset_ps = {0.0, 33.0, 66.0, 99.0};
  cal.base_latency_ps = 100.0;
  const auto back = gc::calibration_from_text(gc::calibration_to_text(cal));
  EXPECT_TRUE(back.fine_curve.is_monotonic_decreasing());
  EXPECT_DOUBLE_EQ(back.fine_curve.invert(20.0), 1.0);
}

TEST(BoardEdge, ProgramClampsOutOfRangeTargets) {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto stim = gs::synthesize_nrz(gs::prbs(7, 48), sc);
  gc::DelayBoardConfig cfg;
  cfg.n_channels = 1;
  cfg.variation = gc::ProcessVariation{};
  gc::DelayBoard board(cfg, Rng(9));
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 5;
  board.calibrate(stim.wf, o);
  const auto lo = board.program(0, -100.0);
  EXPECT_NEAR(lo.predicted_delay_ps, 0.0, 2.0);
  const auto hi = board.program(0, 1e6);
  EXPECT_NEAR(hi.predicted_delay_ps,
              board.calibrations()[0].total_range_ps(), 2.0);
  EXPECT_THROW(board.program(5, 10.0), std::out_of_range);
}

TEST(CdrEdge, TooFewEdgesThrows) {
  ga::CdrConfig c;
  c.ui_ps = 312.5;
  ga::CdrReceiver rx(c);
  gs::Waveform flat(0.0, 1.0, std::vector<double>(1000, -0.4));
  EXPECT_THROW(rx.recover(flat, 0.0), std::runtime_error);
}

TEST(CdrEdge, IntegratesWithDelayChannel) {
  // End to end: ATE-style data through the variable delay channel, then
  // recovered by the CDR — zero errors at a mid-range setting.
  const auto bits = gs::prbs(7, 256);
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto stim = gs::synthesize_nrz(bits, sc);
  gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(21));
  ch.select_tap(2);
  ch.set_vctrl(0.9);
  const auto out = ch.process(stim.wf);
  ga::CdrConfig cc;
  cc.ui_ps = stim.unit_interval_ps;
  ga::CdrReceiver rx(cc);
  const auto res = rx.recover(out, 14000.0);
  EXPECT_EQ(ga::DutReceiver::best_alignment_errors(res.bits, bits, 96), 0u);
}

TEST(ExtractEdgesEdge, ConstantAndTinyWaveforms) {
  gs::Waveform flat(0.0, 1.0, std::vector<double>(64, 0.2));
  EXPECT_TRUE(gs::extract_edges(flat).empty());
  gs::Waveform one(0.0, 1.0, std::vector<double>(1, 0.2));
  EXPECT_TRUE(gs::extract_edges(one).empty());
  gs::Waveform empty;
  EXPECT_TRUE(gs::extract_edges(empty).empty());
}

TEST(SynthEdge, SingleBitPattern) {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto r = gs::synthesize_nrz({1}, sc);
  EXPECT_TRUE(r.ideal_edges_ps.empty());
  EXPECT_NEAR(r.wf.max_value(), sc.amplitude_v, 0.01);
  EXPECT_NEAR(r.wf.min_value(), sc.amplitude_v, 0.01);  // never goes low
}

TEST(DelayMeterEdge, IdenticalWaveformsGiveZero) {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto r = gs::synthesize_nrz(gs::prbs(7, 32), sc);
  const auto d = gm::measure_delay(r.wf, r.wf);
  EXPECT_NEAR(d.mean_ps, 0.0, 1e-9);
  EXPECT_NEAR(d.stddev_ps, 0.0, 1e-9);
}

TEST(NanRangeChecks, EveryConstructorAndSetterRejectsNaN) {
  // NaN fails every comparison, so a range check written as `x <= 0`
  // accepts it; each check is written so that NaN fails instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  gan::VgaBufferConfig amp_min, amp_max, vctrl_max;
  amp_min.amp_min_v = amp_max.amp_max_v = vctrl_max.vctrl_max_v = nan;
  gan::LimitingBufferConfig swing;
  swing.out_swing_v = nan;
  gan::DifferentialImbalanceConfig mismatch;
  mismatch.gain_mismatch_frac = nan;
  gc::CoarseDelayConfig tap;
  tap.tap_error_ps[1] = nan;
  gc::JitterInjectorConfig noise_pp, sj_pp, sj_freq, vctrl_dc;
  noise_pp.noise_pp_v = sj_pp.sj_pp_v = sj_freq.sj_freq_ghz = nan;
  vctrl_dc.vctrl_dc_v = nan;
  gc::JitterInjector inj(gc::JitterInjectorConfig{}, Rng(1));
  gan::VariableGainBuffer vga(gan::VgaBufferConfig{}, Rng(1));
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(1));
  gc::VariableDelayChannel channel(gc::ChannelConfig::prototype(), Rng(1));
  ga::CdrConfig cdr_ui, cdr_gain;
  cdr_ui.ui_ps = cdr_gain.gain = nan;
  const gs::Waveform wf(0.0, 1.0, std::vector<double>(8, 0.0));
  const gm::DjDistribution dj = gm::dual_dirac_dj(1.0);
  gm::DjDistribution nan_weight = dj;
  nan_weight.weight[0] = nan;
  gm::TailSimOptions tail;
  tail.n_points = 2;
  tail.n_samples = 1;
  Rng rng(1);
  const std::vector<gm::IsBerPoint> curve(2);
  ga::PhaseScan scan;
  scan.points.resize(4);
  const std::vector<std::pair<const char*, std::function<void()>>> cases = {
      {"SinglePoleFilter", [&] { gan::SinglePoleFilter{nan}; }},
      {"SlewRateLimiter slew", [&] { gan::SlewRateLimiter{nan}; }},
      {"SlewRateLimiter tau_lin", [&] { gan::SlewRateLimiter(0.005, nan); }},
      {"SlewRateLimiter leak", [&] { gan::SlewRateLimiter(0.005, 20.0, nan); }},
      {"TanhLimiter gain", [&] { gan::TanhLimiter(nan, 0.5); }},
      {"TanhLimiter vsat", [&] { gan::TanhLimiter(2.0, nan); }},
      {"FractionalDelay", [&] { gan::FractionalDelay{nan}; }},
      {"AcCoupler", [&] { gan::AcCoupler{nan}; }},
      {"EyeDiagram ui", [&] { gm::EyeDiagram(nan, -0.5, 0.5); }},
      {"Attenuator", [&] { gan::Attenuator{nan}; }},
      {"NoiseSource sigma", [&] { gan::NoiseSource(nan, 7.5, Rng(1)); }},
      {"NoiseSource bandwidth", [&] { gan::NoiseSource(0.01, nan, Rng(1)); }},
      {"VGA amp_min", [&] { gan::VariableGainBuffer(amp_min, Rng(1)); }},
      {"VGA amp_max", [&] { gan::VariableGainBuffer(amp_max, Rng(1)); }},
      {"VGA vctrl_max", [&] { gan::VariableGainBuffer(vctrl_max, Rng(1)); }},
      {"LimitingBuffer out_swing", [&] { gan::LimitingBuffer(swing, Rng(1)); }},
      {"DifferentialImbalance", [&] { gan::DifferentialImbalance{mismatch}; }},
      {"CoarseDelayBlock tap", [&] { gc::CoarseDelayBlock(tap, Rng(1)); }},
      {"JitterInjector pp", [&] { gc::JitterInjector(noise_pp, Rng(1)); }},
      {"JitterInjector sj_pp", [&] { gc::JitterInjector(sj_pp, Rng(1)); }},
      {"JitterInjector sj_freq", [&] { gc::JitterInjector(sj_freq, Rng(1)); }},
      {"JitterInjector vctrl_dc", [&] { gc::JitterInjector(vctrl_dc, Rng(1)); }},
      {"VGA set_vctrl", [&] { vga.set_vctrl(nan); }},
      {"FineDelayLine set_vctrl", [&] { line.set_vctrl(nan); }},
      {"FineDelayLine set_stage_vctrl", [&] { line.set_stage_vctrl(2, nan); }},
      {"VariableDelayChannel set_vctrl", [&] { channel.set_vctrl(nan); }},
      {"set_noise_pp", [&] { inj.set_noise_pp(nan); }},
      {"set_sj pp", [&] { inj.set_sj(nan, 0.01); }},
      {"set_sj freq", [&] { inj.set_sj(0.1, nan); }},
      {"plan_clock f", [&] { gs::plan_clock(nan, 4, gs::SynthConfig{}); }},
      {"scan_phase ui",
       [&] { (void)ga::DutReceiver().scan_phase(wf, {1, 0}, nan, 0.0, 4); }},
      {"intersect_scans ui", [&] { (void)ga::intersect_scans({scan}, nan); }},
      {"analyze_jitter ui", [&] { gm::analyze_jitter({1.0, 2.0}, nan); }},
      {"measure_phase_delay ui", [&] { gm::measure_phase_delay(wf, wf, nan); }},
      {"measure_fine_range_periodic ui",
       [&] {
         gc::DelayCalibrator().measure_fine_range_periodic(line, wf, nan);
       }},
      {"bathtub_curve ui", [&] { gm::bathtub_curve(nan, 1.0, 0.0); }},
      {"bathtub_curve rj", [&] { gm::bathtub_curve(100.0, nan, 0.0); }},
      {"bathtub_curve dj", [&] { gm::bathtub_curve(100.0, 1.0, nan); }},
      {"eye_opening ber", [&] { gm::eye_opening_at_ber(100.0, 1.0, 0.0, nan); }},
      {"eye_opening rj", [&] { gm::eye_opening_at_ber(100.0, nan, 0.0, 0.1); }},
      {"eye_opening dj", [&] { gm::eye_opening_at_ber(100.0, 0.0, nan, 0.1); }},
      {"dual_dirac_dj", [&] { gm::dual_dirac_dj(nan); }},
      {"ber_at_phase rj", [&] { gm::ber_at_phase(10.0, 100.0, nan, dj); }},
      {"ber_at_phase weight",
       [&] { gm::ber_at_phase(10.0, 100.0, 1.0, nan_weight); }},
      {"is_bathtub ui",
       [&] { gm::importance_sampled_bathtub(nan, 1.0, dj, tail, rng); }},
      {"is_bathtub rj",
       [&] { gm::importance_sampled_bathtub(100.0, nan, dj, tail, rng); }},
      {"is_eye_opening ber",
       [&] { gm::is_eye_opening_at_ber(curve, 100.0, nan); }},
      {"CdrReceiver ui", [&] { ga::CdrReceiver{cdr_ui}; }},
      {"CdrReceiver gain", [&] { ga::CdrReceiver{cdr_gain}; }},
  };
  for (const auto& [name, make] : cases)
    EXPECT_THROW(make(), std::invalid_argument) << name;
  // A rejected Vctrl leaves the programming as it was.
  EXPECT_EQ(line.vctrl(), line.vctrl_max() / 2.0);
  EXPECT_EQ(line.stage_vctrl(0), line.vctrl_max() / 2.0);
  EXPECT_EQ(channel.vctrl(), channel.vctrl_max() / 2.0);
}

TEST(NanRangeChecks, SynthPlanRejectsNonFiniteOrOversizedConfigs) {
  // A non-finite field would reach the grid-size cast or the edge sort;
  // so would finite fields whose grid no size_t holds.
  using C = gs::SynthConfig;
  const std::pair<const char*, double C::*> fields[] = {
      {"rate_gbps", &C::rate_gbps},     {"amplitude_v", &C::amplitude_v},
      {"rise_time_ps", &C::rise_time_ps}, {"dt_ps", &C::dt_ps},
      {"lead_in_ps", &C::lead_in_ps},   {"tail_ps", &C::tail_ps},
      {"rj_sigma_ps", &C::rj_sigma_ps}, {"dj_pp_ps", &C::dj_pp_ps},
      {"dj_freq_ghz", &C::dj_freq_ghz}};
  for (const auto& [name, field] : fields) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
      C cfg;
      cfg.*field = bad;
      Rng rng(1);
      EXPECT_THROW(gs::plan_nrz({0, 1, 0}, cfg, &rng), std::invalid_argument)
          << name << " = " << bad;
    }
  }
  C negative, tiny_dt;
  negative.lead_in_ps = -1e9;
  tiny_dt.dt_ps = 1e-300;
  EXPECT_THROW(gs::plan_nrz({0, 1, 0}, negative), std::invalid_argument);
  EXPECT_THROW(gs::plan_nrz({0, 1, 0}, tiny_dt), std::invalid_argument);
}

TEST(NanRangeChecks, AteConfigsRejectNonFiniteOrOutOfRangeFields) {
  // A NaN or infinite skew span made NaN skews and launch offsets, which
  // surfaced only as "no edges to compare" deep in the deskew flow; a
  // zero or tiny step divided by zero in steps_for() and silently
  // programmed 0 steps; a negative RJ acted as 0. Each field of the
  // channel and bus configs is checked at construction, naming it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> not_finite = {nan, inf, -inf};
  struct Row {
    const char* field;
    std::vector<double> bad;
  };
  using C = ga::AteChannelConfig;
  const std::vector<std::pair<Row, double C::*>> channel_rows = {
      {{"rate_gbps", {nan, inf, -inf, 0.0, -6.4}}, &C::rate_gbps},
      {{"static_skew_ps", not_finite}, &C::static_skew_ps},
      {{"programmable_step_ps", {nan, inf, -inf, 0.0, -100.0}},
       &C::programmable_step_ps},
      {{"rj_sigma_ps", {nan, inf, -inf, -0.5}}, &C::rj_sigma_ps}};
  using B = ga::AteBusConfig;
  const std::vector<std::pair<Row, double B::*>> bus_rows = {
      {{"rate_gbps", {nan, inf, -inf, 0.0, -6.4}}, &B::rate_gbps},
      {{"skew_span_ps", {nan, inf, -inf, -10.0}}, &B::skew_span_ps},
      {{"programmable_step_ps", {nan, inf, -inf, 0.0, -100.0}},
       &B::programmable_step_ps},
      {{"rj_sigma_ps", {nan, inf, -inf, -0.5}}, &B::rj_sigma_ps}};
  const auto expect_rejects = [](const char* what, const char* field,
                                 double bad, const std::function<void()>& make) {
    try {
      make();
      ADD_FAILURE() << what << " accepted " << field << " = " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << what << ": " << e.what();
    }
  };
  for (const auto& [row, field] : channel_rows)
    for (const double bad : row.bad) {
      C cfg;
      cfg.*field = bad;
      expect_rejects("AteChannel", row.field, bad,
                     [&] { ga::AteChannel(cfg, Rng(1)); });
    }
  for (const auto& [row, field] : bus_rows)
    for (const double bad : row.bad) {
      B cfg;
      cfg.*field = bad;
      expect_rejects("AteBus", row.field, bad,
                     [&] { ga::AteBus(cfg, Rng(1)); });
    }
  // The ends of the ranges still go through.
  C quiet;
  quiet.rj_sigma_ps = 0.0;
  EXPECT_NO_THROW(ga::AteChannel(quiet, Rng(1)));
  B aligned;
  aligned.skew_span_ps = 0.0;
  aligned.rj_sigma_ps = 0.0;
  EXPECT_EQ(ga::AteBus(aligned, Rng(1)).launch_skew_span_ps(), 0.0);
}

TEST(NanRangeChecks, NonFiniteUiIsRejectedByEveryEntryPoint) {
  // `!(ui > 0)` rejects NaN but not +Inf, which made scan windows and
  // bathtub phases Inf or NaN; three BER functions checked no UI at all.
  // Every entry point that takes a UI requires it finite and > 0.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto wf = gs::synthesize_nrz(gs::prbs(7, 48), sc).wf;
  const auto edges = gm::delay_edges(wf);
  const gm::DjDistribution dj = gm::dual_dirac_dj(1.0);
  gm::TailSimOptions tail;
  tail.n_points = 2;
  tail.n_samples = 1;
  Rng rng(1);
  std::vector<gm::IsBerPoint> curve(3);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    curve[i].phase_ps = 10.0 * static_cast<double>(i);
    curve[i].ber = 0.1 / std::pow(1e4, static_cast<double>(i));
  }
  ga::PhaseScan scan;
  scan.points.resize(4);
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(1));
  struct Case {
    const char* name;
    double ui;
    std::function<void(double)> run;
  };
  const std::vector<Case> cases = {
      {"scan_phase", inf,
       [&](double ui) {
         (void)ga::DutReceiver().scan_phase(wf, gs::prbs(7, 48), ui, 0.0, 8, 8);
       }},
      {"intersect_scans", inf,
       [&](double ui) { (void)ga::intersect_scans({scan}, ui); }},
      {"analyze_jitter", inf,
       [](double ui) { gm::analyze_jitter({1.0, 2.0}, ui); }},
      {"measure_phase_delay", inf,
       [&](double ui) { gm::measure_phase_delay(wf, wf, ui); }},
      {"phase_delay_edges", inf,
       [&](double ui) { gm::phase_delay_edges(edges, edges, ui); }},
      {"measure_fine_range_periodic", inf,
       [&](double ui) {
         gc::DelayCalibrator().measure_fine_range_periodic(line, wf, ui, 1);
       }},
      {"bathtub_curve", inf, [](double ui) { gm::bathtub_curve(ui, 1.0, 0.0); }},
      {"importance_sampled_bathtub", inf,
       [&](double ui) {
         gm::importance_sampled_bathtub(ui, 1.0, dj, tail, rng);
       }},
      {"EyeDiagram", inf, [](double ui) { gm::EyeDiagram(ui, -0.5, 0.5); }},
      {"CdrReceiver", inf,
       [](double ui) {
         ga::CdrConfig cfg;
         cfg.ui_ps = ui;
         ga::CdrReceiver{cfg};
       }},
      {"eye_opening_at_ber", inf,
       [](double ui) { gm::eye_opening_at_ber(ui, 1.0, 0.0, 1e-12); }},
      {"eye_opening_at_ber", nan,
       [](double ui) { gm::eye_opening_at_ber(ui, 1.0, 0.0, 1e-12); }},
      {"ber_at_phase", inf,
       [&](double ui) { gm::ber_at_phase(10.0, ui, 1.0, dj); }},
      {"ber_at_phase", nan,
       [&](double ui) { gm::ber_at_phase(10.0, ui, 1.0, dj); }},
      {"is_eye_opening_at_ber", inf,
       [&](double ui) { gm::is_eye_opening_at_ber(curve, ui, 1e-3); }},
      {"is_eye_opening_at_ber", nan,
       [&](double ui) { gm::is_eye_opening_at_ber(curve, ui, 1e-3); }},
  };
  for (const auto& c : cases) {
    try {
      c.run(c.ui);
      ADD_FAILURE() << c.name << " accepted ui_ps = " << c.ui;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ui_ps"), std::string::npos)
          << c.name << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.name << " (ui_ps = " << c.ui << ") threw " << e.what();
    }
  }
  // A finite UI still goes through.
  EXPECT_GT(gm::eye_opening_at_ber(100.0, 1.0, 0.0, 1e-12), 0.0);
  EXPECT_GT(gm::is_eye_opening_at_ber(curve, 100.0, 1e-3), 0.0);
}

TEST(NanRangeChecks, BerEntryPointsRequireFiniteRjAndDensity) {
  // `!(rj > 0)` let +Inf through (a BER of rho/2 at every strobe) and no
  // BER function checked the transition density: a NaN one read as a
  // fully open eye at 1e-12. Every BER entry point requires a finite RJ
  // (> 0, or >= 0 on eye_opening_at_ber's pure-DJ branch) and a finite
  // density in (0, 1], naming the field. (A NaN RJ has its rows in
  // EveryConstructorAndSetterRejectsNaN.)
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const gm::DjDistribution dj = gm::dual_dirac_dj(1.0);
  const auto is_bathtub = [&dj](double rj, double rho) {
    gm::TailSimOptions tail;
    tail.n_points = 2;
    tail.n_samples = 1;
    tail.transition_density = rho;
    Rng rng(1);
    gm::importance_sampled_bathtub(100.0, rj, dj, tail, rng);
  };
  struct Case {
    const char* name;
    const char* field;
    double bad;
    std::function<void(double)> run;
  };
  std::vector<Case> cases = {
      {"bathtub_curve", "rj_rms_ps", inf,
       [](double rj) { gm::bathtub_curve(100.0, rj, 0.0); }},
      {"eye_opening_at_ber", "rj_rms_ps", inf,
       [](double rj) { gm::eye_opening_at_ber(100.0, rj, 0.0, 1e-12); }},
      {"ber_at_phase", "rj_rms_ps", inf,
       [&dj](double rj) { gm::ber_at_phase(10.0, 100.0, rj, dj); }},
      {"importance_sampled_bathtub", "rj_rms_ps", inf,
       [&](double rj) { is_bathtub(rj, 0.5); }},
      // DJ is checked on the RJ > 0 branch too, not only the pure-DJ one.
      {"eye_opening_at_ber (rj > 0)", "dj", nan,
       [](double dj_pp) { gm::eye_opening_at_ber(100.0, 1.0, dj_pp, 1e-12); }},
  };
  for (double bad : {nan, inf}) {
    cases.push_back({"bathtub_curve", "transition_density", bad,
                     [](double rho) {
                       gm::BathtubOptions opt;
                       opt.transition_density = rho;
                       gm::bathtub_curve(100.0, 1.0, 0.0, opt);
                     }});
    cases.push_back({"eye_opening_at_ber", "transition_density", bad,
                     [](double rho) {
                       gm::eye_opening_at_ber(100.0, 1.0, 0.0, 1e-12, rho);
                     }});
    cases.push_back({"eye_opening_at_ber (pure DJ)", "transition_density",
                     bad, [](double rho) {
                       gm::eye_opening_at_ber(100.0, 0.0, 10.0, 1e-12, rho);
                     }});
    cases.push_back({"ber_at_phase", "transition_density", bad,
                     [&dj](double rho) {
                       gm::ber_at_phase(10.0, 100.0, 1.0, dj, rho);
                     }});
    cases.push_back({"importance_sampled_bathtub", "transition_density", bad,
                     [&](double rho) { is_bathtub(1.0, rho); }});
  }
  for (const auto& c : cases) {
    try {
      c.run(c.bad);
      ADD_FAILURE() << c.name << " accepted " << c.field << " = " << c.bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << c.name << ": " << e.what();
    }
  }
  // Finite values at the ends of the ranges still go through.
  gm::BathtubOptions full;
  full.transition_density = 1.0;
  EXPECT_EQ(gm::bathtub_curve(100.0, 1.0, 0.0, full).size(), full.n_points);
  EXPECT_EQ(gm::eye_opening_at_ber(100.0, 0.0, 10.0, 1e-12), 90.0);
}

TEST(NonFiniteOptions, MeasurementOptionsAreRejectedUpFront) {
  // A NaN or infinite settle window or threshold extracts no edges (or
  // folds the lead-in); every measurement entry point and sink rejects it
  // up front, naming the field, not after the whole run. So do the
  // histogram and eye raster constructors for their ranges and sizes,
  // before they allocate.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto wf = gs::synthesize_nrz(gs::prbs(7, 32), sc).wf;
  // Crossing options with field f of kFields set to bad.
  const char* const kFields[] = {"threshold_v", "hysteresis_v", "settle_ps"};
  const auto with = [](int f, double bad) {
    gm::CrossingOptions o;
    (f == 0 ? o.threshold_v : f == 1 ? o.hysteresis_v : o.settle_ps) = bad;
    return o;
  };
  const gm::EyeDiagram eye(312.5, -0.5, 0.5);
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(1));
  struct Case {
    std::string name;
    const char* field;
    std::function<void()> run;
  };
  std::vector<Case> cases;
  for (double bad : {nan, inf, -inf}) {
    for (int f = 0; f < 3; ++f) {
      const char* field = kFields[f];
      const auto o = with(f, bad);
      cases.push_back({"measure_delay", field,
                       [&wf, o] { gm::measure_delay(wf, wf, o); }});
      cases.push_back({"measure_phase_delay", field, [&wf, o] {
                         gm::measure_phase_delay(wf, wf, 312.5, o);
                       }});
      cases.push_back({"delay_edges", field,
                       [&wf, o] { gm::delay_edges(wf, o); }});
      cases.push_back({"lane_edges", field, [&wf, &line, o] {
                         gc::lane_edges(std::vector<gc::FineDelayLine*>{&line},
                                        wf, o);
                       }});
      cases.push_back({"measure_jitter", field,
                       [&wf, o] { gm::measure_jitter(wf, 312.5, o); }});
      cases.push_back({"JitterSink", field, [o] { gm::JitterSink{312.5, o}; }});
      cases.push_back({"EdgeSink", field, [o] { gm::EdgeSink{o}; }});
    }
    cases.push_back({"JitterSink", "ui_ps", [bad] { gm::JitterSink{bad}; }});
    cases.push_back({"EyeSink", "phase_ps",
                     [&eye, bad] { gm::EyeSink{eye, bad}; }});
    cases.push_back({"EyeSink", "settle_ps",
                     [&eye, bad] { gm::EyeSink{eye, 0.0, bad}; }});
    cases.push_back({"LevelHistogramSink", "settle_ps",
                     [bad] { gm::LevelHistogramSink{-1.0, 1.0, 16, bad}; }});
    gc::DelayCalibrator::Options o;
    o.settle_ps = bad;
    cases.push_back({"DelayCalibrator", "settle_ps",
                     [o] { gc::DelayCalibrator{o}; }});
    // Bin and raster ranges: an infinite bound made add() divide inf by
    // inf and cast the NaN to an index.
    cases.push_back({"Histogram", "lo",
                     [bad] { gm::Histogram(bad, 1.0, 10); }});
    cases.push_back({"Histogram", "hi",
                     [bad] { gm::Histogram(-1.0, bad, 10); }});
    cases.push_back({"LevelHistogramSink", "lo",
                     [bad] { gm::LevelHistogramSink{bad, 1.0, 16}; }});
    cases.push_back({"EyeDiagram", "v_min",
                     [bad] { gm::EyeDiagram(100.0, bad, 1.0); }});
    cases.push_back({"EyeDiagram", "v_max",
                     [bad] { gm::EyeDiagram(100.0, -1.0, bad); }});
  }
  // Finite ranges whose span overflows, and sizes checked before the bins
  // or cells are allocated: a count no vector holds, or a raster whose
  // cols * rows wraps (2^33 x 2^31 wrapped to an empty grid that add()
  // then indexed), is std::invalid_argument, not std::length_error or
  // std::bad_alloc, and so is a bad range given with such a size.
  constexpr std::size_t kHuge = ~std::size_t{0};
  cases.push_back({"Histogram", "hi",
                   [] { gm::Histogram(-1e308, 1e308, 10); }});
  cases.push_back({"Histogram", "n_bins", [] { gm::Histogram(0.0, 1.0, 0); }});
  cases.push_back({"Histogram", "n_bins",
                   [] { gm::Histogram(0.0, 1.0, kHuge); }});
  cases.push_back({"Histogram", "hi", [] { gm::Histogram(1.0, 0.0, kHuge); }});
  cases.push_back({"LevelHistogramSink", "n_bins",
                   [] { gm::LevelHistogramSink{-1.0, 1.0, 0}; }});
  cases.push_back({"EyeDiagram", "v_max",
                   [] { gm::EyeDiagram(100.0, -1e308, 1e308); }});
  cases.push_back({"EyeDiagram", "ui_ps",
                   [] { gm::EyeDiagram(1e308, -1.0, 1.0); }});
  cases.push_back({"EyeDiagram", "rows",
                   [] { gm::EyeDiagram(100.0, -1.0, 1.0, 96, 1); }});
  cases.push_back({"EyeDiagram", "cols * rows", [] {
                     gm::EyeDiagram(100.0, -1.0, 1.0, std::size_t{1} << 33,
                                    std::size_t{1} << 31);
                   }});
  cases.push_back({"EyeDiagram", "cols * rows", [] {
                     gm::EyeDiagram(100.0, -1.0, 1.0, std::size_t{1} << 31,
                                    std::size_t{1} << 31);
                   }});
  cases.push_back({"EyeDiagram", "v_max", [] {
                     gm::EyeDiagram(100.0, 1.0, -1.0, kHuge, kHuge);
                   }});
  for (const auto& c : cases) {
    try {
      c.run();
      ADD_FAILURE() << c.name << " accepted a bad " << c.field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << c.name << ": " << e.what();
    }
  }
  // A negative settle window stays accepted: it means none.
  gm::CrossingOptions none;
  none.settle_ps = -1.0;
  EXPECT_NEAR(gm::measure_delay(wf, wf, none).mean_ps, 0.0, 1e-9);
  EXPECT_GT(gm::measure_jitter(wf, 312.5, none).n_edges, 0u);
  EXPECT_NO_THROW(gm::EdgeSink{none});
  gc::DelayCalibrator::Options o;
  o.settle_ps = -1.0;
  EXPECT_NO_THROW(gc::DelayCalibrator{o});
}

TEST(NanInput, VctrlSampleIsNotMappedToAnOutOfRangeAmplitude) {
  // A NaN Vctrl sample maps to a NaN half-swing, not to the
  // rail-saturated 0.389 V (or 0.246 V) outside [amp_min, amp_max] that
  // clamping it would give. The NaN poisons every stage from that sample
  // on; the line's limiting output stage, whose det_tanh maps NaN to a
  // rail, then holds one rail, so the record stops toggling instead of
  // running on at a wrong delay.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto wf = gs::synthesize_nrz(gs::prbs(7, 64), sc).wf;
  const std::vector<double>& x = wf.samples();
  const std::size_t k = x.size() / 2;
  std::vector<double> vctrl(x.size(), 0.75);
  vctrl[k] = nan;

  gan::VariableGainBuffer vga(gan::VgaBufferConfig{}, Rng(3));
  EXPECT_TRUE(std::isnan(vga.amplitude_for(nan)));
  EXPECT_TRUE(std::isnan(vga.amplitude_for(-nan)));
  std::vector<double> amp(x.size()), out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    amp[i] = vga.amplitude_for(vctrl[i]);
  vga.process_block(x.data(), amp.data(), out.data(), x.size(), wf.dt_ps());
  EXPECT_FALSE(std::isnan(out[k - 1]));
  for (std::size_t i = k; i < x.size(); ++i)
    ASSERT_TRUE(std::isnan(out[i])) << "stage sample " << i;

  // Sign changes of the line's output from sample k on.
  const auto crossings_from_k = [&](const std::vector<double>* v) {
    gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(3));
    line.process_block(x.data(), v != nullptr ? v->data() : nullptr,
                       out.data(), x.size(), wf.dt_ps());
    std::size_t n = 0;
    for (std::size_t i = k + 1; i < x.size(); ++i)
      n += (out[i] > 0.0) != (out[i - 1] > 0.0);
    return n;
  };
  EXPECT_GT(crossings_from_k(nullptr), 8u);
  EXPECT_LE(crossings_from_k(&vctrl), 1u);
}

TEST(NanInput, IsCountedOrRejectedNeverCastToAnIndex) {
  // A NaN sample reaches no bin or raster cell: the histogram counts it in
  // total() and nan_count(), the eye drops it, and a waveform read at a
  // NaN time gives NaN instead of indexing. A NaN control input throws
  // instead of programming the channel's maximum setting. +/-Inf keep
  // their documented meaning: under/overflow, and clamping.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto binned = [](const gm::Histogram& h) {
    std::size_t n = h.underflow() + h.overflow();
    for (std::size_t i = 0; i < h.n_bins(); ++i) n += h.count(i);
    return n;
  };
  const auto eye = [] { return gm::EyeDiagram(10.0, -1.0, 1.0, 8, 8); };
  gc::ChannelCalibration cal;
  cal.fine_curve = gu::Curve({0.0, 1.5}, {0.0, 50.0});
  cal.tap_offset_ps = {0.0, 33.0, 66.0, 99.0};

  // Each case feeds NaN (the time case also +Inf, which folds to NaN) and
  // returns how many samples it binned.
  const std::vector<std::pair<const char*, std::function<std::size_t()>>>
      samples = {
          {"Histogram::add", [&] {
             gm::Histogram h(-1.0, 1.0, 8);
             h.add(nan);
             EXPECT_EQ(h.total(), 1u);
             EXPECT_EQ(h.nan_count(), 1u);
             return binned(h);
           }},
          {"EyeDiagram::add level", [&] {
             gm::EyeDiagram e = eye();
             e.add(10.0, 0.0, nan);
             return e.total();
           }},
          {"EyeDiagram::add time", [&] {
             gm::EyeDiagram e = eye();
             e.add(nan, 0.0, 0.5);
             e.add(inf, 0.0, 0.5);
             return e.total();
           }},
          {"LevelHistogramSink::consume", [&] {
             gm::LevelHistogramSink s(-1.0, 1.0, 8, 0.0);
             s.begin(0.0, 1.0, 1);
             s.consume(&nan, 1);
             EXPECT_EQ(s.histogram().nan_count(), 1u);
             return binned(s.histogram());
           }},
          {"EyeSink::consume", [&] {
             gm::EyeSink s(eye(), 0.0, 0.0);
             s.begin(0.0, 1.0, 1);
             s.consume(&nan, 1);
             return s.eye().total();
           }},
      };
  for (const auto& [name, run] : samples) EXPECT_EQ(run(), 0u) << name;
  EXPECT_TRUE(std::isnan(gs::Waveform(0.0, 1.0, 4).value_at(nan)));

  const std::vector<std::pair<const char*, std::function<void()>>> controls =
      {
          {"Dac vref", [&] { gc::Dac(12, nan); }},
          {"Dac vref inf", [&] { gc::Dac(12, inf); }},
          {"Dac::code_for", [&] { gc::Dac().code_for(nan); }},
          {"ChannelCalibration::plan", [&] { cal.plan(nan); }},
      };
  for (const auto& [name, run] : controls)
    EXPECT_THROW(run(), std::invalid_argument) << name;

  gm::Histogram h(-1.0, 1.0, 8);
  h.add(-inf);
  h.add(inf);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  const gc::Dac dac;
  EXPECT_EQ(dac.code_for(-inf), 0u);
  EXPECT_EQ(dac.code_for(inf), dac.max_code());
  EXPECT_NEAR(cal.plan(-inf).predicted_delay_ps, 0.0, 0.1);
  EXPECT_NEAR(cal.plan(inf).predicted_delay_ps, cal.total_range_ps(), 0.1);
}
