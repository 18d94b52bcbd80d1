// Layout-tolerance ablation (ours): how much P/N imbalance can the
// coarse-delay traces carry before differential defects eat the timing
// budget? The paper's Fig. 8 traces are "differential pair transmission
// lines with a controlled length" — this bench quantifies 'controlled':
// leg-to-leg skew softens edges and shifts crossings; common-mode offset
// converts to duty-cycle distortion at the limiter.
#include <cstdio>
#include <string>

#include "analog/buffer.h"
#include "analog/differential.h"
#include "bench/common.h"
#include "measure/delay_meter.h"
#include "measure/jitter.h"
#include "signal/edges.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

using namespace gdelay;

namespace {

struct Result {
  double shift_ps;
  double tj_pp_ps;
  double dcd_ps;
};

Result run(const sig::SynthResult& s, double leg_skew_ps, double offset_v) {
  analog::DifferentialImbalanceConfig c;
  c.leg_skew_ps = leg_skew_ps;
  c.offset_v = offset_v;
  analog::DifferentialImbalance el(c);
  analog::LimitingBufferConfig lb;
  lb.noise_sigma_v = 0.0;
  analog::LimitingBuffer lim(lb, util::Rng(1));
  auto out = lim.process(el.process(s.wf));

  Result r{};
  r.shift_ps = meas::measure_delay(s.wf, out).mean_ps;
  r.tj_pp_ps = meas::measure_jitter(out, s.unit_interval_ps).tj_pp_ps;
  const auto edges = sig::extract_edges(out);
  // PRBS edges of either polarity fall on even and odd UIs alike, so each
  // polarity is fitted on a 1-UI grid: on a 2-UI grid its edges form two
  // opposite clusters and the fitted phase is rounding residue.
  const auto rise =
      meas::analyze_jitter(sig::rising_times(edges), s.unit_interval_ps);
  const auto fall =
      meas::analyze_jitter(sig::falling_times(edges), s.unit_interval_ps);
  // Rising and falling grids coincide when the duty cycle is clean; DCD
  // is the residual, wrapped into half a UI.
  r.dcd_ps = meas::wrap_delay(rise.grid_phase_ps - fall.grid_phase_ps,
                              s.unit_interval_ps);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outdir = bench::parse_outdir(&argc, argv);
  bench::banner("Differential P/N imbalance tolerance",
                "(ours; 'controlled length differential pair' of Fig. 8)");

  sig::SynthConfig sc;
  sc.rate_gbps = 6.4;
  const auto s = sig::synthesize_nrz(sig::prbs(7, 256), sc);

  bench::section("Leg-to-leg skew sweep (offset = 0)");
  std::printf("  %10s %12s %10s %10s\n", "skew(ps)", "shift(ps)", "TJ(ps)",
              "DCD(ps)");
  const auto base = run(s, 0.0, 0.0);
  Result skew40{};
  for (double skew : {0.0, 10.0, 20.0, 40.0, 60.0}) {
    const auto r = run(s, skew, 0.0);
    std::printf("  %10.0f %12.2f %10.2f %10.2f\n", skew,
                r.shift_ps - base.shift_ps, r.tj_pp_ps, r.dcd_ps);
    if (skew == 40.0) skew40 = r;
  }
  std::printf("  -> leg skew shifts the lane by skew/2 (a CALIBRATABLE\n"
              "     error, absorbed by the deskew flow) and softens edges;\n"
              "     it only becomes jitter once ISI interacts with it.\n");

  bench::section("Common-mode offset sweep (skew = 0)");
  std::printf("  %10s %10s %10s\n", "offset(mV)", "TJ(ps)", "DCD(ps)");
  Result off80{};
  for (double off : {0.0, 0.02, 0.04, 0.08}) {
    const auto r = run(s, 0.0, off);
    std::printf("  %10.0f %10.2f %10.2f\n", off * 1000.0, r.tj_pp_ps,
                r.dcd_ps);
    if (off == 0.08) off80 = r;
  }
  std::printf(
      "  -> offsets are NOT calibratable by a delay setting: they split\n"
      "     rising/falling edges (DCD) and burn jitter budget directly.\n"
      "     Keeping the pair balanced matters more than keeping it short.\n");

  bench::write_figure_json(
      outdir, "diff_imbalance",
      {{"baseline_tj_pp_ps", base.tj_pp_ps},
       {"baseline_dcd_ps", base.dcd_ps},
       {"shift_ps_skew40", skew40.shift_ps - base.shift_ps},
       {"tj_pp_ps_skew40", skew40.tj_pp_ps},
       {"dcd_ps_skew40", skew40.dcd_ps},
       {"tj_pp_ps_offset80mv", off80.tj_pp_ps},
       {"dcd_ps_offset80mv", off80.dcd_ps}});
  return 0;
}
