// Sinusoidal-jitter tolerance template (ours): the end-use of the
// paper's jitter-injection mode. Sweep the SJ frequency injected through
// the Vctrl port and find, at each frequency, the largest amplitude a
// CDR-based receiver survives. Below the CDR loop bandwidth the loop
// tracks the wander and tolerance is injector-limited; above it the
// untracked jitter eats the receiver's setup/hold margin and the
// tolerance drops — the classic template corner that SerDes specs (and
// the paper's reference [1]) draw.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "ate/cdr.h"
#include "ate/dut.h"
#include "bench/common.h"
#include "core/jitter_injector.h"
#include "measure/jitter.h"
#include "signal/edges.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

using namespace gdelay;

namespace {

constexpr double kSetupHoldPs = 48.0;
constexpr double kLoopGain = 0.08;

// Bit errors + setup/hold violations of a CDR receiver on the stressed
// signal.
std::size_t cdr_errors(const sig::SynthResult& stim,
                       const sig::BitPattern& bits,
                       const sig::Waveform& stressed) {
  ate::CdrConfig cc;
  cc.ui_ps = stim.unit_interval_ps;
  cc.gain = kLoopGain;
  ate::CdrReceiver rx(cc);
  const auto res = rx.recover(stressed, 14000.0);
  std::size_t errors =
      ate::DutReceiver::best_alignment_errors(res.bits, bits, 128);

  // Setup/hold: any transition inside the keep-out window of a strobe.
  sig::EdgeExtractOptions eo;
  eo.hysteresis_v = 0.1;
  eo.t_min_ps = 14000.0;
  const auto edge_times = sig::edge_times(sig::extract_edges(stressed, eo));
  for (double strobe : res.strobes_ps) {
    const auto it = std::lower_bound(edge_times.begin(), edge_times.end(),
                                     strobe - kSetupHoldPs);
    if (it != edge_times.end() && *it <= strobe + kSetupHoldPs) ++errors;
  }
  return errors;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outdir = bench::parse_outdir(&argc, argv);
  bench::banner("SJ jitter-tolerance template via Vctrl injection",
                "(ours; Section 5 applied as in ref. [1])");

  util::Rng rng(2008);
  sig::SynthConfig sc;
  sc.rate_gbps = 6.4;  // tight UI so the untracked margin is small
  const auto bits = sig::prbs(7, 1024);
  const auto stim = sig::synthesize_nrz(bits, sc, nullptr);

  double loop_bw_mhz = 0.0;
  {
    ate::CdrConfig cc;
    cc.ui_ps = stim.unit_interval_ps;
    cc.gain = kLoopGain;
    loop_bw_mhz = 1000.0 * ate::CdrReceiver(cc).loop_bandwidth_ghz();
    std::printf("\n6.4 Gbps, UI %.2f ps, receiver setup/hold %.0f/%.0f ps,"
                " CDR loop bandwidth ~ %.1f MHz\n",
                stim.unit_interval_ps, kSetupHoldPs, kSetupHoldPs,
                1000.0 * ate::CdrReceiver(cc).loop_bandwidth_ghz());
  }

  bench::section("Max tolerated Vctrl SJ amplitude vs frequency");
  std::printf("  %10s %14s %12s\n", "f_SJ(MHz)", "max ampl(Vpp)",
              "~SJ TJ(ps)");
  std::vector<std::pair<std::string, double>> scalars;
  double tol_min_vpp = 1.5, tol_low_vpp = 0.0, tol_high_vpp = 0.0;
  for (double f_mhz : {2.0, 6.0, 20.0, 60.0, 200.0, 600.0}) {
    double lo = 0.0, hi = 1.5;
    for (int iter = 0; iter < 7; ++iter) {
      const double amp = (lo + hi) / 2.0;
      core::JitterInjectorConfig jc;
      jc.sj_pp_v = amp;
      jc.sj_freq_ghz = f_mhz / 1000.0;
      jc.noise_pp_v = 0.0;
      core::JitterInjector inj(jc, rng.fork(static_cast<std::uint64_t>(
                                       f_mhz * 10.0 + iter)));
      const auto out = inj.process(stim.wf);
      if (cdr_errors(stim, bits, out) == 0)
        lo = amp;
      else
        hi = amp;
    }
    core::JitterInjectorConfig jc;
    jc.sj_pp_v = std::max(lo, 0.01);
    jc.sj_freq_ghz = f_mhz / 1000.0;
    jc.noise_pp_v = 0.0;
    core::JitterInjector inj(jc, rng.fork(777));
    meas::CrossingOptions jo;
    jo.settle_ps = 12000.0;
    const double tj =
        meas::measure_jitter(inj.process(stim.wf), stim.unit_interval_ps, jo)
            .tj_pp_ps;
    std::printf("  %10.0f %14.3f %12.1f%s\n", f_mhz, lo, tj,
                lo >= 1.49 ? "  (injector range limit)" : "");
    char key[48];
    std::snprintf(key, sizeof key, "sj_tolerance_vpp_%.0fmhz", f_mhz);
    scalars.emplace_back(key, lo);
    tol_min_vpp = std::min(tol_min_vpp, lo);
    if (f_mhz == 2.0) tol_low_vpp = lo;
    if (f_mhz == 600.0) tol_high_vpp = lo;
  }
  std::printf(
      "\n  shape: tolerance is injector-limited below the CDR loop\n"
      "  bandwidth (printed above) because the loop tracks the wander,\n"
      "  then drops to the untracked setup/hold margin above it — the\n"
      "  standard jitter-tolerance template, produced end-to-end with\n"
      "  the paper's Vctrl injection hookup.\n");

  scalars.emplace_back("cdr_loop_bandwidth_mhz", loop_bw_mhz);
  scalars.emplace_back("sj_tolerance_vpp_min", tol_min_vpp);
  // The template's defining shape: tracked (low-f) tolerance must exceed
  // untracked (high-f) tolerance.
  scalars.emplace_back("template_corner_ratio",
                       tol_high_vpp > 0.0 ? tol_low_vpp / tol_high_vpp : 0.0);
  bench::write_figure_json(outdir, "sj_template", scalars);
  return 0;
}
