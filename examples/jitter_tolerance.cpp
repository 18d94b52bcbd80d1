// Receiver jitter-tolerance test — the paper's second application
// (Section 5): use the fine-delay line as a jitter injector and find how
// much jitter a DUT receiver tolerates before it starts failing.
//
// The injector AC-couples a Gaussian noise source onto Vctrl; sweeping
// the generator amplitude sweeps the injected jitter. A DUT receiver
// with a realistic setup/hold window samples the stressed signal at the
// eye center; the tolerance threshold is the injected-jitter level where
// errors first appear.
//
//   $ ./jitter_tolerance
#include <cmath>
#include <cstdio>

#include "ate/dut.h"
#include "core/jitter_injector.h"
#include "measure/eye.h"
#include "measure/jitter.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

using namespace gdelay;

int main() {
  util::Rng rng(7);

  // 6.4 Gbps PRBS7 (the application's maximum rate) with a little
  // native jitter; the injection hookup is that of Fig. 16.
  sig::SynthConfig sc;
  sc.rate_gbps = 6.4;
  sc.rj_sigma_ps = 1.0;
  const auto bits = sig::prbs(7, 512);
  const auto stim = sig::synthesize_nrz(bits, sc, &rng);
  const double ui = stim.unit_interval_ps;

  core::JitterInjector injector(core::JitterInjectorConfig{}, rng.fork(1));

  ate::DutReceiverConfig rxc;
  rxc.setup_ps = 55.0;
  rxc.hold_ps = 55.0;
  ate::DutReceiver rx(rxc);

  meas::CrossingOptions jo;
  jo.settle_ps = 12000.0;

  std::printf("DUT jitter-tolerance scan at %.1f Gbps "
              "(receiver setup/hold = %.0f/%.0f ps)\n\n",
              sc.rate_gbps, rxc.setup_ps, rxc.hold_ps);
  std::printf("  %10s %10s %10s %10s %8s\n", "noise(Vpp)", "TJ(ps)",
              "eyeW(ps)", "errors", "result");

  double tolerance_tj = 0.0;
  bool failed_once = false;
  for (double pp = 0.0; pp <= 1.61; pp += 0.2) {
    injector.set_noise_pp(pp);
    const auto out = injector.process(stim.wf);

    const auto eye = meas::measure_eye(out, ui, 0.0, jo.settle_ps);
    // Strobe every bit at the measured eye center, skipping the settle.
    const double center = eye.crossing_phase_ps + ui / 2.0;
    std::vector<double> strobes;
    sig::BitPattern expected;
    const std::size_t first_bit = 1 + static_cast<std::size_t>(
        jo.settle_ps / ui);
    for (std::size_t k = first_bit; k + 2 < bits.size(); ++k) {
      // Place the strobe in bit k's eye near the measured center phase.
      const double t = sc.lead_in_ps + static_cast<double>(k) * ui;
      const double phase = std::fmod(center - std::fmod(t, ui) + 2 * ui, ui);
      strobes.push_back(t + phase);
      expected.push_back(bits[k]);
    }
    const auto sampled = rx.sample(out, strobes);
    const std::size_t errors =
        ate::DutReceiver::best_alignment_errors(sampled.bits, expected) +
        sampled.violations;

    const auto j = meas::measure_jitter(out, ui, jo);
    const bool pass = errors == 0;
    std::printf("  %10.1f %10.1f %10.1f %10zu %8s\n", pp, j.tj_pp_ps,
                eye.eye_width_ps, errors, pass ? "PASS" : "FAIL");
    if (!pass && !failed_once) failed_once = true;
    if (pass) tolerance_tj = j.tj_pp_ps;
  }

  std::printf("\njitter tolerance: the receiver is error-free up to "
              "~%.0f ps of total jitter\n", tolerance_tj);
  std::printf("(%.1f%% of a UI; the injector converts voltage noise to "
              "timing stress without\n touching the data path, exactly the "
              "paper's Section-5 hookup)\n",
              100.0 * tolerance_tj / ui);
  return 0;
}
