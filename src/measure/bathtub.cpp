#include "measure/bathtub.h"

#include <cmath>
#include <stdexcept>

#include "measure/stats.h"
#include "util/fastmath.h"

namespace gdelay::meas {

double q_function(double z) {
  // gdelay-audit: allow(R1) BER-extrapolation tail probability; analysis
  // output only, never fed back into the simulated signal path.
  return 0.5 * std::erfc(z / std::sqrt(2.0));
}

namespace {

double ber_at(double x, double ui, double sigma, double dj, double rho) {
  const double left = (x - dj / 2.0) / sigma;
  const double right = (ui - x - dj / 2.0) / sigma;
  return rho / 2.0 * (q_function(left) + q_function(right));
}

}  // namespace

// Every range check in this file is written so that NaN fails it.

std::vector<BathtubPoint> bathtub_curve(double ui_ps, double rj_rms_ps,
                                        double dj_pp_ps,
                                        const BathtubOptions& opt) {
  require_ui(ui_ps, "bathtub");
  require_jitter_model(rj_rms_ps, opt.transition_density, "bathtub");
  if (!(dj_pp_ps >= 0.0))
    throw std::invalid_argument("bathtub: dj must be >= 0");
  if (opt.n_points < 3)
    throw std::invalid_argument("bathtub: need >= 3 points");

  std::vector<BathtubPoint> out;
  out.reserve(opt.n_points);
  for (std::size_t i = 0; i < opt.n_points; ++i) {
    const double x = ui_ps * static_cast<double>(i) /
                     static_cast<double>(opt.n_points - 1);
    out.push_back({x, ber_at(x, ui_ps, rj_rms_ps, dj_pp_ps,
                             opt.transition_density)});
  }
  return out;
}

std::vector<BathtubPoint> bathtub_curve(const JitterReport& report,
                                        const BathtubOptions& opt) {
  // Guard against a perfectly clean (simulated) signal.
  const double rj = report.rj_rms_ps > 1e-6 ? report.rj_rms_ps : 1e-6;
  return bathtub_curve(report.ui_ps, rj, report.dj_pp_ps, opt);
}

double eye_opening_at_ber(double ui_ps, double rj_rms_ps, double dj_pp_ps,
                          double target_ber, double transition_density) {
  require_ui(ui_ps, "eye_opening_at_ber");
  if (!(target_ber > 0.0 && target_ber < 1.0))
    throw std::invalid_argument("eye_opening_at_ber: BER in (0,1) required");
  require_jitter_model(rj_rms_ps, transition_density, "eye_opening_at_ber",
                       /*rj_may_be_zero=*/true);
  if (!(dj_pp_ps >= 0.0))
    throw std::invalid_argument("eye_opening_at_ber: dj must be >= 0");
  if (rj_rms_ps == 0.0) {
    // Pure DJ: the bathtub is a step — BER = rho/2 on the Dirac span,
    // exactly 0 between the Diracs — so the opening is exact.
    if (target_ber > transition_density / 2.0) return ui_ps;
    return std::max(0.0, ui_ps - dj_pp_ps);
  }
  // Solve BER(x) = target for the left edge by bisection over [0, UI/2];
  // the curve is monotone decreasing there (left crossing dominates).
  double lo = 0.0, hi = ui_ps / 2.0;
  const auto ber = [&](double x) {
    return ber_at(x, ui_ps, rj_rms_ps, dj_pp_ps, transition_density);
  };
  if (ber(hi) >= target_ber) return 0.0;  // closed at the center
  if (ber(lo) < target_ber) return ui_ps; // open everywhere (clean clock)
  for (int i = 0; i < 200; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (ber(mid) >= target_ber)
      lo = mid;
    else
      hi = mid;
  }
  const double left_edge = (lo + hi) / 2.0;
  return ui_ps - 2.0 * left_edge;  // symmetric by construction
}

// ---------------------------------------------------------------------------
// Importance-sampled tail measurement
// ---------------------------------------------------------------------------

DjDistribution dual_dirac_dj(double dj_pp_ps) {
  if (!(dj_pp_ps >= 0.0))
    throw std::invalid_argument("dual_dirac_dj: dj must be >= 0");
  DjDistribution dj;
  if (dj_pp_ps == 0.0) {
    dj.offset_ps = {0.0};
    dj.weight = {1.0};
  } else {
    dj.offset_ps = {-dj_pp_ps / 2.0, dj_pp_ps / 2.0};
    dj.weight = {0.5, 0.5};
  }
  return dj;
}

namespace {

std::vector<double> normalized_weights(const DjDistribution& dj) {
  if (dj.offset_ps.empty() || dj.offset_ps.size() != dj.weight.size())
    throw std::invalid_argument("DjDistribution: offsets/weights mismatch");
  double sum = 0.0;
  for (double w : dj.weight) {
    if (!(w >= 0.0))
      throw std::invalid_argument("DjDistribution: negative weight");
    sum += w;
  }
  if (!(sum > 0.0))
    throw std::invalid_argument("DjDistribution: weights sum to zero");
  std::vector<double> out;
  out.reserve(dj.weight.size());
  for (double w : dj.weight) out.push_back(w / sum);
  return out;
}

/// One tail probability P(d + N(0,sigma) > c_base) estimated by
/// exponential tilting: the proposal for the Gaussian part is mean-
/// shifted onto the error threshold, so roughly half the samples land in
/// the failure region no matter how deep the tail, and each hit carries
/// the likelihood ratio exp((m^2 - 2 m g)/(2 sigma^2)) as its weight.
/// Returns {p_hat, variance of p_hat}.
std::pair<double, double> is_tail_probability(
    double c_base, double sigma, const std::vector<double>& offsets,
    const std::vector<double>& cum_weights, std::size_t n_samples,
    util::Rng& rng) {
  double sum_w = 0.0;
  double sum_w2 = 0.0;
  for (std::size_t s = 0; s < n_samples; ++s) {
    // Categorical draw of the deterministic displacement.
    const double u = rng.uniform();
    std::size_t k = 0;
    while (k + 1 < cum_weights.size() && u >= cum_weights[k]) ++k;
    const double c = c_base - offsets[k];
    const double z = rng.gaussian();
    const double m = c > 0.0 ? c : 0.0;  // tilt only into the tail
    const double g = m + sigma * z;
    if (g > c) {
      const double w = util::det_exp((m * m - 2.0 * m * g) /
                                     (2.0 * sigma * sigma));
      sum_w += w;
      sum_w2 += w * w;
    }
  }
  const double n = static_cast<double>(n_samples);
  const double p = sum_w / n;
  const double var = std::max(0.0, sum_w2 / n - p * p) / n;
  return {p, var};
}

}  // namespace

double ber_at_phase(double x_ps, double ui_ps, double rj_rms_ps,
                    const DjDistribution& dj, double transition_density) {
  require_ui(ui_ps, "ber_at_phase");
  require_jitter_model(rj_rms_ps, transition_density, "ber_at_phase");
  const std::vector<double> w = normalized_weights(dj);
  double left = 0.0, right = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    left += w[i] * q_function((x_ps - dj.offset_ps[i]) / rj_rms_ps);
    right += w[i] * q_function((ui_ps - x_ps - dj.offset_ps[i]) / rj_rms_ps);
  }
  return transition_density / 2.0 * (left + right);
}

std::vector<IsBerPoint> importance_sampled_bathtub(double ui_ps,
                                                   double rj_rms_ps,
                                                   const DjDistribution& dj,
                                                   const TailSimOptions& opt,
                                                   util::Rng& rng) {
  // Pure-DJ channels (rj = 0) are analytic: eye_opening_at_ber.
  require_ui(ui_ps, "is_bathtub");
  require_jitter_model(rj_rms_ps, opt.transition_density, "is_bathtub");
  if (opt.n_points < 2)
    throw std::invalid_argument("is_bathtub: need >= 2 points");
  if (opt.n_samples < 1)
    throw std::invalid_argument("is_bathtub: need >= 1 sample");
  const std::vector<double> w = normalized_weights(dj);
  std::vector<double> cum(w.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) cum[i] = (acc += w[i]);

  const double rho = opt.transition_density;
  std::vector<IsBerPoint> out;
  out.reserve(opt.n_points);
  for (std::size_t i = 0; i < opt.n_points; ++i) {
    const double x = ui_ps / 2.0 * static_cast<double>(i) /
                     static_cast<double>(opt.n_points - 1);
    const auto [pl, vl] = is_tail_probability(x, rj_rms_ps, dj.offset_ps, cum,
                                              opt.n_samples, rng);
    const auto [pr, vr] = is_tail_probability(ui_ps - x, rj_rms_ps,
                                              dj.offset_ps, cum,
                                              opt.n_samples, rng);
    IsBerPoint pt;
    pt.phase_ps = x;
    pt.ber = rho / 2.0 * (pl + pr);
    const double var = rho / 2.0 * rho / 2.0 * (vl + vr);
    pt.rel_stderr = pt.ber > 0.0 ? std::sqrt(var) / pt.ber : 0.0;
    out.push_back(pt);
  }
  return out;
}

double is_eye_opening_at_ber(const std::vector<IsBerPoint>& curve,
                             double ui_ps, double target_ber) {
  require_ui(ui_ps, "is_eye_opening");
  if (curve.size() < 2)
    throw std::invalid_argument("is_eye_opening: need >= 2 curve points");
  if (!(target_ber > 0.0 && target_ber < 1.0))
    throw std::invalid_argument("is_eye_opening: BER in (0,1) required");
  if (curve.front().ber < target_ber) return ui_ps;  // open everywhere
  // Walk toward the eye center for the first crossing below target.
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const IsBerPoint& a = curve[i - 1];
    const IsBerPoint& b = curve[i];
    if (!(a.ber >= target_ber && b.ber < target_ber)) continue;
    double x;
    if (b.ber > 0.0) {
      // Log-linear interpolation — BER is exponential in phase here.
      const double la = util::det_log(a.ber);
      const double lb = util::det_log(b.ber);
      const double lt = util::det_log(target_ber);
      x = a.phase_ps + (b.phase_ps - a.phase_ps) * (la - lt) / (la - lb);
    } else {
      // The far point measured exactly zero hits; fall back to linear.
      x = a.phase_ps + (b.phase_ps - a.phase_ps) * (a.ber - target_ber) /
                           (a.ber - b.ber);
    }
    return std::max(0.0, ui_ps - 2.0 * x);
  }
  return 0.0;  // closed at this BER everywhere on the measured half
}

}  // namespace gdelay::meas
