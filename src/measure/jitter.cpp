#include "measure/jitter.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "measure/stats.h"
#include "signal/edges.h"
#include "util/units.h"
#include "util/fastmath.h"

namespace gdelay::meas {
namespace {

/// Fractional part of a phase in turns, in [0, 1).
double sig_turns_frac(double turns) { return turns - std::floor(turns); }

}  // namespace


JitterReport analyze_jitter(const std::vector<double>& ts, double ui_ps) {
  if (!(ui_ps > 0.0))
    throw std::invalid_argument("analyze_jitter: ui must be > 0");
  JitterReport rep;
  rep.ui_ps = ui_ps;
  rep.n_edges = ts.size();
  if (ts.empty()) return rep;

  // Circular mean of the crossing phases: immune to the residuals wrapping
  // around the UI boundary, unlike a naive arithmetic mean of (t mod UI).
  double c = 0.0, s = 0.0;
  for (double t : ts) {
    double sv, cv;
    util::det_sincos2pi(sig_turns_frac(t / ui_ps), sv, cv);
    c += cv;
    s += sv;
  }
  // gdelay-audit: allow(R1) analysis-side circular-mean readout; not in
  // the simulated signal path.
  double phase = std::atan2(s, c) / (2.0 * util::kPi) * ui_ps;
  if (phase < 0.0) phase += ui_ps;
  rep.grid_phase_ps = phase;

  rep.residuals_ps.reserve(ts.size());
  for (double t : ts) {
    double r = std::fmod(t - phase, ui_ps);
    if (r < -ui_ps / 2.0) r += ui_ps;
    if (r > ui_ps / 2.0) r -= ui_ps;
    rep.residuals_ps.push_back(r);
  }

  const Summary sum = summarize(rep.residuals_ps);
  rep.tj_pp_ps = sum.peak_to_peak();
  rep.rj_rms_ps = sum.stddev;
  // Dual-Dirac-style decomposition at the observed population size:
  // a pure Gaussian with sigma = RJ over n edges shows a pk-pk of about
  // 2*Q*RJ with Q = sqrt(2 ln n); anything beyond that is deterministic.
  const double q = std::sqrt(2.0 * util::det_log(static_cast<double>(
                                       std::max<std::size_t>(ts.size(), 8))));
  rep.dj_pp_ps = std::max(0.0, rep.tj_pp_ps - 2.0 * q * rep.rj_rms_ps);
  return rep;
}

JitterReport measure_jitter(const sig::Waveform& wf, double ui_ps,
                            const JitterMeasureOptions& opt) {
  sig::EdgeExtractOptions eo;
  eo.threshold_v = opt.threshold_v;
  eo.hysteresis_v = opt.hysteresis_v;
  eo.t_min_ps = wf.t0_ps() + opt.settle_ps;
  const auto edges = sig::extract_edges(wf, eo);
  return analyze_jitter(sig::edge_times(edges), ui_ps);
}

DdjReport analyze_ddj(const std::vector<double>& ts, double ui_ps,
                      std::size_t min_count) {
  const JitterReport base = analyze_jitter(ts, ui_ps);
  DdjReport rep;
  if (ts.size() < 2) return rep;

  // Bucket residuals by the preceding gap in whole UIs.
  std::map<int, std::vector<double>> groups;
  for (std::size_t i = 1; i < ts.size(); ++i) {
    const int run = static_cast<int>(
        std::lround((ts[i] - ts[i - 1]) / ui_ps));
    if (run < 1) continue;  // merged/duplicate edges
    groups[run].push_back(base.residuals_ps[i]);
  }

  double lo = 1e300, hi = -1e300;
  for (const auto& [run, residuals] : groups) {
    const Summary s = summarize(residuals);
    DdjBucket b;
    b.run_ui = run;
    b.n = s.n;
    b.mean_ps = s.mean;
    b.stddev_ps = s.stddev;
    rep.buckets.push_back(b);
    if (s.n >= min_count) {
      lo = std::min(lo, s.mean);
      hi = std::max(hi, s.mean);
    }
  }
  if (hi >= lo) rep.ddj_pp_ps = hi - lo;
  return rep;
}

}  // namespace gdelay::meas
