#include "measure/delay_meter.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "measure/stats.h"
#include "signal/edges.h"
#include "util/fastmath.h"
#include "util/units.h"

namespace gdelay::meas {
namespace {

DelayMeasurement from_deltas(const std::vector<double>& deltas) {
  const Summary s = summarize(deltas);
  DelayMeasurement m;
  m.n_edges = s.n;
  m.mean_ps = s.mean;
  m.stddev_ps = s.stddev;
  m.min_ps = s.min;
  m.max_ps = s.max;
  return m;
}

// Deltas for a given (ref, out) front-trim; empty if polarities clash.
std::vector<double> deltas_for(const std::vector<double>& rt,
                               const std::vector<bool>& rr,
                               const std::vector<double>& ot,
                               const std::vector<bool>& orr, std::size_t roff,
                               std::size_t ooff) {
  std::vector<double> d;
  std::size_t i = roff, j = ooff;
  while (i < rt.size() && j < ot.size()) {
    if (rr[i] != orr[j]) return {};
    d.push_back(ot[j] - rt[i]);
    ++i;
    ++j;
  }
  return d;
}

// A NaN settle window or threshold extracts no edges at all, which would
// surface only as a misleading "no edges" error after the whole run.
void check_options(const DelayMeterOptions& opt, const char* fn) {
  const auto need_finite = [fn](double v, const char* field) {
    if (!std::isfinite(v))
      throw std::invalid_argument(std::string(fn) + ": " + field +
                                  " must be finite");
  };
  need_finite(opt.threshold_v, "threshold_v");
  need_finite(opt.hysteresis_v, "hysteresis_v");
  need_finite(opt.settle_ps, "settle_ps");
}

}  // namespace

DelayMeasurement measure_delay_edges(const std::vector<double>& ref_times,
                                     const std::vector<bool>& ref_rising,
                                     const std::vector<double>& out_times,
                                     const std::vector<bool>& out_rising,
                                     bool require_equal_counts) {
  if (ref_times.size() != ref_rising.size() ||
      out_times.size() != out_rising.size())
    throw std::invalid_argument("measure_delay_edges: times/polarity mismatch");
  if (ref_times.empty() || out_times.empty())
    throw std::runtime_error("measure_delay_edges: no edges to compare");
  if (require_equal_counts && ref_times.size() != out_times.size())
    throw std::runtime_error(
        "measure_delay_edges: transition counts differ (" +
        std::to_string(ref_times.size()) + " vs " +
        std::to_string(out_times.size()) + ")");

  // The sequences describe the same data pattern, but either trace may be
  // missing a few leading edges (settle windows cut at different pattern
  // positions because the output lags). Try small front trims on both
  // sides and keep the alignment with the tightest delay spread — a
  // misalignment on PRBS data shifts every delta by a pattern-dependent
  // number of unit intervals, exploding the spread.
  constexpr std::size_t kMaxTrim = 6;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<double> best;
  for (std::size_t roff = 0; roff <= kMaxTrim && roff < ref_times.size();
       ++roff) {
    for (std::size_t ooff = 0; ooff <= kMaxTrim && ooff < out_times.size();
         ++ooff) {
      if (roff != 0 && ooff != 0) continue;  // trimming both is redundant
      auto d = deltas_for(ref_times, ref_rising, out_times, out_rising, roff,
                          ooff);
      if (d.size() < 4) continue;
      const Summary s = summarize(d);
      // Prefer longer alignments; the trim penalty must exceed the noise
      // on the spread estimate so ties always go to the untouched
      // sequences (critical for quasi-periodic patterns).
      const double score =
          s.stddev + 0.25 * static_cast<double>(roff + ooff);
      if (score < best_score) {
        best_score = score;
        best = std::move(d);
      }
    }
  }
  if (best.empty())
    throw std::runtime_error(
        "measure_delay_edges: could not align edge sequences");
  return from_deltas(best);
}

double wrap_delay(double delta_ps, double ui_ps) {
  double r = std::fmod(delta_ps, ui_ps);
  if (r < -ui_ps / 2.0) r += ui_ps;
  if (r >= ui_ps / 2.0) r -= ui_ps;
  return r;
}

double measure_phase_delay(const sig::Waveform& reference,
                           const sig::Waveform& output, double ui_ps,
                           const DelayMeterOptions& opt) {
  check_options(opt, "measure_phase_delay");
  if (!(ui_ps > 0.0))
    throw std::invalid_argument("measure_phase_delay: ui must be > 0");
  sig::EdgeExtractOptions eo;
  eo.threshold_v = opt.threshold_v;
  eo.hysteresis_v = opt.hysteresis_v;
  eo.t_min_ps = reference.t0_ps() + opt.settle_ps;
  const auto re = sig::extract_edges(reference, eo);
  eo.t_min_ps = output.t0_ps() + opt.settle_ps;
  const auto oe = sig::extract_edges(output, eo);
  if (re.empty() || oe.empty())
    throw std::runtime_error("measure_phase_delay: no edges");

  // Circular mean of each trace's crossing phase on the UI grid, as in
  // the jitter analyzer; the difference is the delay mod UI.
  const auto phase_of = [ui_ps](const std::vector<sig::Edge>& edges) {
    double c = 0.0, s = 0.0;
    for (const auto& e : edges) {
      const double turns = e.t_ps / ui_ps;
      double sv, cv;
      util::det_sincos2pi(turns - std::floor(turns), sv, cv);
      c += cv;
      s += sv;
    }
    // gdelay-audit: allow(R1) analysis-side circular-mean readout; not in
    // the simulated signal path.
    return std::atan2(s, c) / (2.0 * util::kPi) * ui_ps;
  };
  double d = phase_of(oe) - phase_of(re);
  d = std::fmod(d, ui_ps);
  if (d < 0.0) d += ui_ps;
  return d;
}

DelayMeasurement measure_delay(const sig::Waveform& reference,
                               const sig::Waveform& output,
                               const DelayMeterOptions& opt) {
  check_options(opt, "measure_delay");
  sig::EdgeExtractOptions eo;
  eo.threshold_v = opt.threshold_v;
  eo.hysteresis_v = opt.hysteresis_v;
  eo.t_min_ps = reference.t0_ps() + opt.settle_ps;
  const auto re = sig::extract_edges(reference, eo);
  eo.t_min_ps = output.t0_ps() + opt.settle_ps;
  const auto oe = sig::extract_edges(output, eo);

  std::vector<double> rt, ot;
  std::vector<bool> rr, orr;
  for (const auto& e : re) {
    rt.push_back(e.t_ps);
    rr.push_back(e.rising);
  }
  for (const auto& e : oe) {
    ot.push_back(e.t_ps);
    orr.push_back(e.rising);
  }
  return measure_delay_edges(rt, rr, ot, orr, opt.require_equal_counts);
}

}  // namespace gdelay::meas
