// Baseline comparison (paper introduction, Fig. 1): adjusting the CLOCK
// phase — the conventional PLL/DLL solution — versus delaying the DATA.
//
// Per-lane links (PCIe-style) are happy with clock-phase adjustment:
// each receiver centers its own clock in its own data eye. A parallel-
// synchronous bus (HyperTransport-3-style) has ONE clock for N skewed
// lanes: the best single clock phase still loses the skew span from the
// common window, which is exactly why the paper builds a per-lane DATA
// delay instead.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "ate/bus.h"
#include "ate/controller.h"
#include "ate/dut.h"
#include "bench/common.h"
#include "signal/pattern.h"
#include "util/rng.h"

using namespace gdelay;

int main() {
  bench::banner("Baseline: clock-phase adjustment vs data-path delay",
                "Fig. 1 and Section 1 (PCIe vs HyperTransport discussion)");

  util::Rng rng(2008);
  ate::AteBusConfig bc;
  bc.n_channels = 4;
  bc.rate_gbps = 6.4;
  bc.skew_span_ps = 120.0;
  bc.rj_sigma_ps = 0.8;
  ate::AteBus bus(bc, rng.fork(1));
  const double ui = 1000.0 / bc.rate_gbps;
  const auto training = sig::prbs(7, 96);

  ate::DutReceiver rx;
  std::vector<ate::PhaseScan> scans;
  bench::section("Per-lane eyes (skewed launch, no correction)");
  for (int i = 0; i < bc.n_channels; ++i) {
    const auto launched = bus.channel(i).drive(training);
    const auto scan =
        rx.scan_phase(launched.wf, training, ui,
                      bc.synth.lead_in_ps + ui / 2.0, 80, 48);
    scans.push_back(scan);
    std::printf("  lane %d window %5.1f ps (skew %+7.1f ps)\n", i,
                scan.window_ps, bus.channel(i).static_skew_ps());
  }

  bench::section("Strategy A: per-lane clock phase (PCIe-style links)");
  std::printf(
      "  each lane gets its own recovered/adjusted clock -> each lane's\n"
      "  full window is usable:\n");
  double worst = 1e300;
  for (int i = 0; i < bc.n_channels; ++i) {
    // A DLL centers the strobe in this lane's eye; usable margin is the
    // lane's own window minus one step of a 128-step phase interpolator.
    // The lane's fork is taken though nothing draws from it: Rng::fork
    // advances the parent, and the delay lines below draw from the parent.
    rng.fork(50 + static_cast<std::uint64_t>(i));
    const double usable =
        scans[static_cast<std::size_t>(i)].window_ps - ui / 128.0;
    worst = std::min(worst, usable);
    std::printf("  lane %d usable margin %5.1f ps\n", i, usable);
  }
  std::printf("  -> works (worst lane %5.1f ps), but needs one clock per\n"
              "     lane and tolerates channel-to-channel skew by design.\n",
              worst);

  bench::section("Strategy B: ONE clock phase for the whole bus (HT3-style)");
  const auto common = ate::intersect_scans(scans, ui);
  std::printf(
      "  the best single strobe phase only has the INTERSECTION of the\n"
      "  lane windows to work with: %.1f ps%s\n", common.window_ps,
      common.window_ps <= 0.0 ? " (no common window at all)" : "");
  std::printf("  clock-phase adjustment cannot create a common window —\n"
              "  it can only slide within whatever intersection exists.\n");

  bench::section("Strategy C: per-lane DATA delay (this paper)");
  std::vector<core::VariableDelayChannel> delays;
  for (int i = 0; i < bc.n_channels; ++i)
    delays.emplace_back(core::ChannelConfig::prototype(),
                        rng.fork(100 + static_cast<std::uint64_t>(i)));
  ate::DeskewController::Options opt;
  opt.training = training;
  opt.calibration.n_vctrl_points = 13;
  ate::DeskewController ctl(bus, delays, opt);
  const auto rep = ctl.run();
  std::vector<ate::PhaseScan> fixed;
  for (int i = 0; i < bc.n_channels; ++i) {
    const auto launched = bus.channel(i).drive(training);
    const auto received =
        delays[static_cast<std::size_t>(i)].process(launched.wf);
    fixed.push_back(rx.scan_phase(received, training, ui,
                                  bc.synth.lead_in_ps + ui / 2.0, 80, 48));
  }
  const auto common_fixed = ate::intersect_scans(fixed, ui);
  std::printf("  residual bus skew %.2f ps -> common window %.1f ps\n",
              rep.span_after_ps, common_fixed.window_ps);
  std::printf(
      "\n  verdict: clock phase solves the narrow-band problem (Fig. 1);\n"
      "  only the wide-band data delay makes a parallel-synchronous bus\n"
      "  capturable with one strobe — the paper's motivation.\n");
  return 0;
}
