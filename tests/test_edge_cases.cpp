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
#include "ate/cdr.h"
#include "ate/dut.h"
#include "core/board.h"
#include "core/cal_io.h"
#include "core/calibration.h"
#include "core/channel.h"
#include "core/clock_shifter.h"
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

TEST(HistogramEdge, ModeOnEmptyIsZero) {
  gm::Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.mode_bin(), 0u);
  EXPECT_EQ(h.total(), 0u);
  // Ascii render of an empty histogram must not divide by zero.
  EXPECT_NO_THROW(h.ascii());
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
  gc::JitterInjectorConfig noise_pp, sj_pp, sj_freq;
  noise_pp.noise_pp_v = sj_pp.sj_pp_v = sj_freq.sj_freq_ghz = nan;
  gc::JitterInjector inj(gc::JitterInjectorConfig{}, Rng(1));
  ga::CdrConfig cdr_ui, cdr_gain;
  cdr_ui.ui_ps = cdr_gain.gain = nan;
  gc::ClockPhaseShifterConfig period;
  period.period_ps = nan;
  const gs::Waveform wf(0.0, 1.0, std::vector<double>(8, 0.0));
  const gm::DjDistribution dj = gm::dual_dirac_dj(1.0);
  gm::DjDistribution nan_weight = dj;
  nan_weight.weight[0] = nan;
  gm::TailSimOptions tail;
  tail.n_points = 2;
  tail.n_samples = 1;
  Rng rng(1);
  const std::vector<gm::IsBerPoint> curve(2);
  const std::vector<std::pair<const char*, std::function<void()>>> cases = {
      {"SinglePoleFilter", [&] { gan::SinglePoleFilter{nan}; }},
      {"SlewRateLimiter slew", [&] { gan::SlewRateLimiter{nan}; }},
      {"SlewRateLimiter tau_lin", [&] { gan::SlewRateLimiter(0.005, nan); }},
      {"SlewRateLimiter leak", [&] { gan::SlewRateLimiter(0.005, 20.0, nan); }},
      {"TanhLimiter gain", [&] { gan::TanhLimiter(nan, 0.5); }},
      {"TanhLimiter vsat", [&] { gan::TanhLimiter(2.0, nan); }},
      {"NoiseAdder", [&] { gan::NoiseAdder(nan, Rng(1)); }},
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
      {"set_noise_pp", [&] { inj.set_noise_pp(nan); }},
      {"set_sj pp", [&] { inj.set_sj(nan, 0.01); }},
      {"set_sj freq", [&] { inj.set_sj(0.1, nan); }},
      {"Waveform::resampled", [&] { (void)wf.resampled(nan); }},
      {"plan_clock f", [&] { gs::plan_clock(nan, 4, gs::SynthConfig{}); }},
      {"scan_phase ui",
       [&] { (void)ga::DutReceiver().scan_phase(wf, {1, 0}, nan, 0.0, 4); }},
      {"analyze_jitter ui", [&] { gm::analyze_jitter({1.0, 2.0}, nan); }},
      {"measure_phase_delay ui", [&] { gm::measure_phase_delay(wf, wf, nan); }},
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
      {"ClockPhaseShifter", [&] { gc::ClockPhaseShifter(period, Rng(1)); }},
  };
  for (const auto& [name, make] : cases)
    EXPECT_THROW(make(), std::invalid_argument) << name;
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

TEST(NonFiniteOptions, MeasurementOptionsAreRejectedUpFront) {
  // A NaN or infinite settle window or threshold extracts no edges; it is
  // rejected up front, naming the field, not after the whole run.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto wf = gs::synthesize_nrz(gs::prbs(7, 32), sc).wf;
  using Field = double gm::DelayMeterOptions::*;
  const std::vector<std::pair<const char*, Field>> fields = {
      {"threshold_v", &gm::DelayMeterOptions::threshold_v},
      {"hysteresis_v", &gm::DelayMeterOptions::hysteresis_v},
      {"settle_ps", &gm::DelayMeterOptions::settle_ps},
  };
  struct Case {
    std::string name;
    const char* field;
    std::function<void()> run;
  };
  std::vector<Case> cases;
  for (double bad : {nan, inf, -inf}) {
    for (const auto& [field, member] : fields) {
      gm::DelayMeterOptions o;
      o.*member = bad;
      cases.push_back({"measure_delay", field,
                       [&wf, o] { gm::measure_delay(wf, wf, o); }});
      cases.push_back({"measure_phase_delay", field, [&wf, o] {
                         gm::measure_phase_delay(wf, wf, 312.5, o);
                       }});
    }
    gc::DelayCalibrator::Options o;
    o.settle_ps = bad;
    cases.push_back({"DelayCalibrator", "settle_ps",
                     [o] { gc::DelayCalibrator{o}; }});
  }
  for (const auto& c : cases) {
    try {
      c.run();
      ADD_FAILURE() << c.name << " accepted a non-finite " << c.field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << c.name << ": " << e.what();
    }
  }
  // A negative settle window stays accepted: it means none.
  gm::DelayMeterOptions none;
  none.settle_ps = -1.0;
  EXPECT_NEAR(gm::measure_delay(wf, wf, none).mean_ps, 0.0, 1e-9);
  gc::DelayCalibrator::Options o;
  o.settle_ps = -1.0;
  EXPECT_NO_THROW(gc::DelayCalibrator{o});
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
