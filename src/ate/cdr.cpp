#include "ate/cdr.h"

#include <cmath>
#include <stdexcept>

#include "measure/delay_meter.h"
#include "measure/stats.h"
#include "signal/edges.h"
#include "util/units.h"

namespace gdelay::ate {

CdrReceiver::CdrReceiver(const CdrConfig& cfg) : cfg_(cfg) {
  meas::require_ui(cfg.ui_ps, "CdrReceiver");
  if (!(cfg.gain > 0.0 && cfg.gain <= 1.0))
    throw std::invalid_argument("CdrReceiver: gain must be in (0, 1]");
}

double CdrReceiver::loop_bandwidth_ghz() const {
  // Edge density ~0.5 per UI on random data; one update of weight `gain`
  // per edge gives a single-pole response with tau = UI / (0.5 * gain),
  // i.e. f3dB = 1 / (2 pi tau).
  const double tau_ps = cfg_.ui_ps / (0.5 * cfg_.gain);
  return 1000.0 / (2.0 * util::kPi * tau_ps);
}

CdrResult CdrReceiver::recover(const sig::Waveform& wf,
                               double t_start_ps) const {
  sig::EdgeExtractOptions eo;
  eo.threshold_v = cfg_.threshold_v;
  eo.hysteresis_v = cfg_.hysteresis_v;
  eo.t_min_ps = t_start_ps;
  const auto edges = sig::extract_edges(wf, eo);
  if (edges.size() < 4)
    throw std::runtime_error("CdrReceiver: too few transitions to lock");

  CdrResult res;
  const double ui = cfg_.ui_ps;
  // Continuous sampler: the strobe time advances by one UI per bit plus
  // small loop corrections — no modulo arithmetic, so slow phase drift
  // moves the sampler smoothly instead of causing bit slips.
  double sample = edges.front().t_ps + ui / 2.0;
  double err_sq = 0.0, err_n = 0.0;
  std::size_t next_edge = 0;
  while (sample <= wf.t_end_ps()) {
    // Consume transitions up to this strobe; each one updates the loop.
    while (next_edge < edges.size() && edges[next_edge].t_ps <= sample) {
      const double expected_crossing = sample - ui / 2.0;
      const double e = meas::wrap_delay(
          edges[next_edge].t_ps - expected_crossing, ui);
      sample += cfg_.gain * e;
      err_sq += e * e;
      err_n += 1.0;
      ++next_edge;
    }
    res.strobes_ps.push_back(sample);
    res.phase_ps.push_back(sample - ui / 2.0);
    res.bits.push_back(wf.value_at(sample) >= cfg_.threshold_v ? 1 : 0);
    sample += ui;
  }
  if (err_n > 0.0) res.tracking_error_rms_ps = std::sqrt(err_sq / err_n);
  return res;
}

}  // namespace gdelay::ate
