#include "measure/jitter.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "measure/sinks.h"
#include "measure/stats.h"
#include "util/units.h"
#include "util/fastmath.h"

namespace gdelay::meas {
namespace {

/// Fractional part of a phase in turns, in [0, 1).
double sig_turns_frac(double turns) { return turns - std::floor(turns); }

}  // namespace


JitterReport analyze_jitter(const std::vector<double>& ts, double ui_ps) {
  require_ui(ui_ps, "analyze_jitter");
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

void check_options(const JitterMeasureOptions& opt, const char* caller) {
  require_finite(opt.threshold_v, caller, "threshold_v");
  require_finite(opt.hysteresis_v, caller, "hysteresis_v");
  require_finite(opt.settle_ps, caller, "settle_ps");
}

JitterReport measure_jitter(const sig::Waveform& wf, double ui_ps,
                            const JitterMeasureOptions& opt) {
  check_options(opt, "measure_jitter");
  JitterSink sink(ui_ps, opt);
  sink.begin(wf.t0_ps(), wf.dt_ps(), wf.size());
  sink.consume(wf.samples().data(), wf.size());
  sink.finish();
  return sink.report();
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
