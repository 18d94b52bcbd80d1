#include "ate/dut.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "signal/edges.h"

namespace gdelay::ate {
namespace {

// Widest contiguous run of passing phase points, treating the scan as
// circular (the UI wraps), in units of phase step count.
std::size_t widest_circular_run(const std::vector<bool>& pass) {
  const std::size_t n = pass.size();
  if (n == 0) return 0;
  if (std::all_of(pass.begin(), pass.end(), [](bool b) { return b; })) return n;
  std::size_t best = 0, cur = 0;
  // Scan twice around to catch wrap-around runs.
  for (std::size_t i = 0; i < 2 * n; ++i) {
    if (pass[i % n]) {
      ++cur;
      best = std::max(best, std::min(cur, n));
    } else {
      cur = 0;
    }
  }
  return best;
}

}  // namespace

SampleResult DutReceiver::sample(const sig::Waveform& wf,
                                 const std::vector<double>& strobes_ps) const {
  SampleResult res;
  res.bits.reserve(strobes_ps.size());

  // Pre-extract data transitions once for the violation check.
  sig::EdgeExtractOptions eo;
  eo.threshold_v = cfg_.threshold_v;
  const auto edges = sig::extract_edges(wf, eo);
  const auto times = sig::edge_times(edges);

  for (double t : strobes_ps) {
    res.bits.push_back(wf.value_at(t) >= cfg_.threshold_v ? 1 : 0);
    const auto it = std::lower_bound(times.begin(), times.end(),
                                     t - cfg_.setup_ps);
    if (it != times.end() && *it <= t + cfg_.hold_ps) ++res.violations;
  }
  return res;
}

std::size_t DutReceiver::best_alignment_errors(const sig::BitPattern& got,
                                               const sig::BitPattern& expected,
                                               int max_shift) {
  if (got.empty() || expected.empty()) return got.size();
  std::size_t best = got.size();
  for (int shift = -max_shift; shift <= max_shift; ++shift) {
    std::size_t errors = 0, compared = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const long j = static_cast<long>(i) + shift;
      if (j < 0 || j >= static_cast<long>(expected.size())) continue;
      ++compared;
      if (got[i] != expected[static_cast<std::size_t>(j)]) ++errors;
    }
    if (compared < got.size() / 2) continue;  // too little overlap
    best = std::min(best, errors);
  }
  return best;
}

PhaseScan DutReceiver::scan_phase(const sig::Waveform& wf,
                                  const sig::BitPattern& expected,
                                  double ui_ps, double t_first_ps,
                                  std::size_t n_strobes,
                                  std::size_t n_phase_points) const {
  if (!(ui_ps > 0.0)) throw std::invalid_argument("scan_phase: ui must be > 0");
  if (n_phase_points < 2)
    throw std::invalid_argument("scan_phase: need >= 2 phase points");

  PhaseScan scan;
  scan.points.reserve(n_phase_points);
  std::vector<bool> pass(n_phase_points, false);
  for (std::size_t p = 0; p < n_phase_points; ++p) {
    const double phase = ui_ps * static_cast<double>(p) /
                         static_cast<double>(n_phase_points);
    std::vector<double> strobes;
    strobes.reserve(n_strobes);
    for (std::size_t k = 0; k < n_strobes; ++k)
      strobes.push_back(t_first_ps + phase +
                        ui_ps * static_cast<double>(k));
    const SampleResult sr = sample(wf, strobes);
    PhaseScanPoint pt;
    pt.phase_ps = phase;
    pt.errors = best_alignment_errors(sr.bits, expected);
    pt.violations = sr.violations;
    pass[p] = pt.pass();
    scan.points.push_back(pt);
  }
  scan.window_ps = static_cast<double>(widest_circular_run(pass)) * ui_ps /
                   static_cast<double>(n_phase_points);
  return scan;
}

PhaseScan intersect_scans(const std::vector<PhaseScan>& scans, double ui_ps) {
  if (scans.empty()) throw std::invalid_argument("intersect_scans: empty");
  const std::size_t n = scans.front().points.size();
  for (const auto& s : scans)
    if (s.points.size() != n)
      throw std::invalid_argument("intersect_scans: size mismatch");

  PhaseScan out;
  out.points.reserve(n);
  std::vector<bool> pass(n, true);
  for (std::size_t p = 0; p < n; ++p) {
    PhaseScanPoint pt;
    pt.phase_ps = scans.front().points[p].phase_ps;
    for (const auto& s : scans) {
      pt.errors += s.points[p].errors;
      pt.violations += s.points[p].violations;
    }
    pass[p] = pt.pass();
    out.points.push_back(pt);
  }
  std::size_t best = 0, cur = 0;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    if (pass[i % n]) {
      ++cur;
      best = std::max(best, std::min(cur, n));
    } else {
      cur = 0;
    }
  }
  if (std::all_of(pass.begin(), pass.end(), [](bool b) { return b; }))
    best = n;
  out.window_ps = static_cast<double>(best) * ui_ps / static_cast<double>(n);
  return out;
}

}  // namespace gdelay::ate
