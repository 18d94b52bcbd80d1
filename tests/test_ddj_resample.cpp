// Tests for DDJ analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "core/fine_delay.h"
#include "measure/jitter.h"
#include "signal/edges.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace gm = gdelay::meas;
namespace gs = gdelay::sig;
namespace gc = gdelay::core;
using gdelay::util::Rng;

TEST(Ddj, CleanGridHasNoDdj) {
  // Edges on a perfect grid with mixed run lengths: all bucket means 0.
  std::vector<double> ts;
  double t = 0.0;
  int gaps[] = {1, 3, 1, 2, 5, 1, 1, 2};
  for (int round = 0; round < 30; ++round)
    for (int g : gaps) {
      t += g * 156.25;
      ts.push_back(t);
    }
  const auto rep = gm::analyze_ddj(ts, 156.25);
  EXPECT_GE(rep.buckets.size(), 4u);
  EXPECT_NEAR(rep.ddj_pp_ps, 0.0, 1e-9);
}

TEST(Ddj, DetectsRunLengthDependentShift) {
  // Synthetic ISI: edges after a >= 3 UI run arrive 4 ps late.
  Rng rng(3);
  std::vector<double> ts;
  double t = 0.0;
  int gaps[] = {1, 3, 1, 2, 5, 1, 1, 2};
  for (int round = 0; round < 40; ++round)
    for (int g : gaps) {
      t += g * 156.25;
      ts.push_back(t + (g >= 3 ? 4.0 : 0.0) + rng.gaussian(0.0, 0.3));
    }
  const auto rep = gm::analyze_ddj(ts, 156.25);
  EXPECT_NEAR(rep.ddj_pp_ps, 4.0, 0.8);
  // Identify which buckets are shifted.
  for (const auto& b : rep.buckets) {
    if (b.n < 5) continue;
    if (b.run_ui >= 3)
      EXPECT_GT(b.mean_ps, 2.0) << "run " << b.run_ui;
    else
      EXPECT_LT(b.mean_ps, 2.0) << "run " << b.run_ui;
  }
}

TEST(Ddj, FineDelayLineShowsDroopDdj) {
  // The VGA stages' bias droop is pattern-dependent by construction; the
  // DDJ analyzer must see a nonzero but bounded run-length dependence.
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto stim = gs::synthesize_nrz(gs::run_length_stress(384, 6), sc);
  gc::FineDelayConfig fc;
  fc.stage.noise_sigma_v = 0.0;  // isolate the deterministic part
  fc.output_stage.noise_sigma_v = 0.0;
  gc::FineDelayLine line(fc, Rng(4));
  line.set_vctrl(0.75);
  const auto out = line.process(stim.wf);
  gm::CrossingOptions jo;
  jo.settle_ps = 12000.0;
  const auto edges = gm::measure_jitter(out, stim.unit_interval_ps, jo);
  const auto rep =
      gm::analyze_ddj(std::vector<double>(), stim.unit_interval_ps);
  (void)rep;  // empty input must not crash
  // Direct DDJ on the extracted crossings:
  gs::EdgeExtractOptions eo;
  eo.hysteresis_v = 0.1;
  eo.t_min_ps = 12000.0;
  const auto ex = gs::extract_edges(out, eo);
  const auto ddj = gm::analyze_ddj(gs::edge_times(ex), stim.unit_interval_ps);
  EXPECT_GT(ddj.ddj_pp_ps, 0.3);   // the droop leaves a visible signature
  EXPECT_LT(ddj.ddj_pp_ps, 12.0);  // ... but bounded
  (void)edges;
}
