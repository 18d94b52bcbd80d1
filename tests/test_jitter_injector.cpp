// Tests for the jitter-injection mode (paper Section 5, Figs. 16/17).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/jitter_injector.h"
#include "measure/jitter.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace gc = gdelay::core;
namespace gs = gdelay::sig;
namespace gm = gdelay::meas;
using gdelay::util::Rng;

namespace {
gs::SynthResult stim(std::size_t bits = 256) {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  return gs::synthesize_nrz(gs::prbs(7, bits), sc);
}
}  // namespace

TEST(JitterInjector, RejectsNegativeNoise) {
  gc::JitterInjectorConfig cfg;
  cfg.noise_pp_v = -0.1;
  EXPECT_THROW(gc::JitterInjector(cfg, Rng(1)), std::invalid_argument);
  gc::JitterInjector inj(gc::JitterInjectorConfig{}, Rng(1));
  EXPECT_THROW(inj.set_noise_pp(-1.0), std::invalid_argument);
}

TEST(JitterInjector, RejectsDcAboveVctrlRange) {
  // Above vctrl_max the clamp would pin every Vctrl sample to the rail,
  // so no noise would reach the line. The rail itself and the negative
  // mid-range sentinel stay accepted.
  const double inf = std::numeric_limits<double>::infinity();
  gc::JitterInjectorConfig cfg;
  const double vmax = cfg.line.stage.vctrl_max_v;
  for (double bad : {7.0, std::nextafter(vmax, inf), inf}) {
    cfg.vctrl_dc_v = bad;
    EXPECT_THROW(gc::JitterInjector(cfg, Rng(1)), std::invalid_argument)
        << bad;
  }
  for (double good : {vmax, 0.0, -inf}) {
    cfg.vctrl_dc_v = good;
    EXPECT_NO_THROW(gc::JitterInjector(cfg, Rng(1))) << good;
  }
}

TEST(JitterInjector, DefaultsToMidRangeDc) {
  gc::JitterInjector inj(gc::JitterInjectorConfig{}, Rng(1));
  EXPECT_DOUBLE_EQ(inj.config().vctrl_dc_v, -1.0);  // sentinel
  EXPECT_DOUBLE_EQ(inj.noise_pp(), 0.9);
}

TEST(JitterInjector, ZeroNoisePassesSignalCleanly) {
  const auto s = stim(192);
  gc::JitterInjectorConfig cfg;
  cfg.noise_pp_v = 0.0;
  cfg.line.stage.noise_sigma_v = 0.0;
  cfg.line.output_stage.noise_sigma_v = 0.0;
  gc::JitterInjector inj(cfg, Rng(2));
  const auto out = inj.process(s.wf);
  // Skip the bias-droop settling transient; what remains is the line's
  // deterministic (pattern-dependent) jitter, a few ps at most.
  gm::JitterMeasureOptions jo;
  jo.settle_ps = 12000.0;
  const auto j = gm::measure_jitter(out, s.unit_interval_ps, jo);
  EXPECT_LT(j.tj_pp_ps, 8.0);
}

TEST(JitterInjector, InjectsSubstantialJitter) {
  // Paper Fig. 16: 900 mVpp noise turns ~8 ps input TJ into ~69 ps.
  const auto s = stim();
  gc::JitterInjectorConfig cfg;
  cfg.noise_pp_v = 0.9;
  gc::JitterInjector inj(cfg, Rng(3));
  const auto out = inj.process(s.wf);
  const auto jin = gm::measure_jitter(s.wf, s.unit_interval_ps);
  const auto jout = gm::measure_jitter(out, s.unit_interval_ps);
  EXPECT_GT(jout.tj_pp_ps - jin.tj_pp_ps, 20.0);
  EXPECT_LT(jout.tj_pp_ps, 0.45 * s.unit_interval_ps);  // eye not closed
}

TEST(JitterInjector, AddedJitterMonotoneInNoiseAmplitude) {
  // Fig. 17: added jitter grows with the applied noise amplitude.
  const auto s = stim();
  gc::JitterInjector inj(gc::JitterInjectorConfig{}, Rng(4));
  double prev = -1.0;
  for (double pp : {0.0, 0.3, 0.6, 0.9}) {
    inj.set_noise_pp(pp);
    const auto out = inj.process(s.wf);
    const double tj = gm::measure_jitter(out, s.unit_interval_ps).tj_pp_ps;
    EXPECT_GT(tj, prev - 2.0) << "pp=" << pp;
    prev = tj;
  }
  EXPECT_GT(prev, 25.0);  // at 900 mVpp the injection is large
}

TEST(JitterInjector, JitterIsCenteredNotSkewing) {
  // AC coupling: injection must not shift the mean delay appreciably.
  const auto s = stim();
  gc::JitterInjector quiet(gc::JitterInjectorConfig{}, Rng(5));
  quiet.set_noise_pp(0.0);
  gc::JitterInjector noisy(gc::JitterInjectorConfig{}, Rng(5));
  noisy.set_noise_pp(0.9);
  const auto jq = gm::measure_jitter(quiet.process(s.wf), s.unit_interval_ps);
  const auto jn = gm::measure_jitter(noisy.process(s.wf), s.unit_interval_ps);
  double shift = jn.grid_phase_ps - jq.grid_phase_ps;
  if (shift > s.unit_interval_ps / 2.0) shift -= s.unit_interval_ps;
  if (shift < -s.unit_interval_ps / 2.0) shift += s.unit_interval_ps;
  EXPECT_NEAR(shift, 0.0, 6.0);
}
