#include "measure/delay_meter.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "measure/sinks.h"
#include "measure/stats.h"
#include "signal/edges.h"

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
std::vector<double> deltas_for(const std::vector<sig::Edge>& ref,
                               const std::vector<sig::Edge>& out,
                               std::size_t roff, std::size_t ooff) {
  std::vector<double> d;
  std::size_t i = roff, j = ooff;
  while (i < ref.size() && j < out.size()) {
    if (ref[i].rising != out[j].rising) return {};
    d.push_back(out[j].t_ps - ref[i].t_ps);
    ++i;
    ++j;
  }
  return d;
}

}  // namespace

std::vector<sig::Edge> delay_edges(const sig::Waveform& wf,
                                   const CrossingOptions& opt) {
  check_options(opt, "delay_edges");
  EdgeSink sink(opt);
  sink.begin(wf.t0_ps(), wf.dt_ps(), wf.size());
  sink.consume(wf.samples().data(), wf.size());
  sink.finish();
  return sink.edges();
}

DelayMeasurement measure_delay_edges(const std::vector<sig::Edge>& reference,
                                     const std::vector<sig::Edge>& output) {
  if (reference.empty() || output.empty())
    throw std::runtime_error("measure_delay_edges: no edges to compare");

  // The sequences describe the same data pattern, but either trace may be
  // missing a few leading edges (settle windows cut at different pattern
  // positions because the output lags). Try small front trims on both
  // sides and keep the alignment with the tightest delay spread — a
  // misalignment on PRBS data shifts every delta by a pattern-dependent
  // number of unit intervals, exploding the spread.
  constexpr std::size_t kMaxTrim = 6;
  double best_score = std::numeric_limits<double>::infinity();
  std::vector<double> best;
  for (std::size_t roff = 0; roff <= kMaxTrim && roff < reference.size();
       ++roff) {
    for (std::size_t ooff = 0; ooff <= kMaxTrim && ooff < output.size();
         ++ooff) {
      if (roff != 0 && ooff != 0) continue;  // trimming both is redundant
      auto d = deltas_for(reference, output, roff, ooff);
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
                           const CrossingOptions& opt) {
  check_options(opt, "measure_phase_delay");
  require_ui(ui_ps, "measure_phase_delay");
  return phase_delay_edges(delay_edges(reference, opt),
                           delay_edges(output, opt), ui_ps);
}

double phase_delay_edges(const std::vector<sig::Edge>& reference,
                         const std::vector<sig::Edge>& output, double ui_ps) {
  require_ui(ui_ps, "phase_delay_edges");
  if (reference.empty() || output.empty())
    throw std::runtime_error("phase_delay_edges: no edges");

  // The difference of the two crossing-grid phases is the delay mod UI.
  double d = circular_phase_ps(sig::edge_times(output), ui_ps) -
             circular_phase_ps(sig::edge_times(reference), ui_ps);
  d = std::fmod(d, ui_ps);
  if (d < 0.0) d += ui_ps;
  return d;
}

DelayMeasurement measure_delay(const sig::Waveform& reference,
                               const sig::Waveform& output,
                               const CrossingOptions& opt) {
  check_options(opt, "measure_delay");
  return measure_delay_edges(delay_edges(reference, opt),
                             delay_edges(output, opt));
}

}  // namespace gdelay::meas
