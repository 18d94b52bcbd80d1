// BER bathtub curves from jitter statistics (dual-Dirac extrapolation).
//
// A receiver strobing at phase x inside the eye sees a bit error whenever
// a crossing wanders past the strobe. With the dual-Dirac jitter model
// (two deterministic impulses +/- DJ/2 apart, each convolved with a
// Gaussian RJ of sigma), the BER at offset x from the left crossing is
//
//   BER(x) = rho_t/2 * [ Q((x - DJ/2)/sigma) + Q((UI - x - DJ/2)/sigma) ]
//
// with Q the Gaussian tail and rho_t the transition density (0.5 for
// random data). This is how ATE jitter packages extrapolate the
// measured TJ/RJ/DJ decomposition down to BER 1e-12 without taking 1e12
// bits of data.
#pragma once

#include <cstddef>
#include <vector>

#include "measure/jitter.h"
#include "util/rng.h"

namespace gdelay::meas {

struct BathtubPoint {
  double phase_ps = 0.0;  ///< Strobe offset from the nominal crossing.
  double ber = 0.0;
};

struct BathtubOptions {
  std::size_t n_points = 65;
  double transition_density = 0.5;
};

/// Gaussian tail probability Q(z) = P(N(0,1) > z).
double q_function(double z);

/// The full bathtub across one UI from a jitter decomposition.
/// `ui_ps` must be finite and > 0, `rj_rms_ps` finite and > 0,
/// `dj_pp_ps` >= 0 and the transition density finite and in (0, 1]
/// (std::invalid_argument naming the field otherwise). Every function
/// below checks its UI, RJ and density the same way (require_ui and
/// require_jitter_model, measure/stats.h).
std::vector<BathtubPoint> bathtub_curve(double ui_ps, double rj_rms_ps,
                                        double dj_pp_ps,
                                        const BathtubOptions& opt = {});

/// Convenience: from a measured JitterReport.
std::vector<BathtubPoint> bathtub_curve(const JitterReport& report,
                                        const BathtubOptions& opt = {});

/// Width of the region where BER < `target_ber` (the "eye opening at
/// 1e-12" figure of merit). 0 if the eye is closed at that BER.
///
/// RJ = 0 is handled analytically: a pure-DJ channel's bathtub is a step
/// (BER = transition_density/2 inside the Dirac span, exactly 0 between),
/// so the opening is exactly UI - DJ — no hidden floor on sigma. RJ must
/// be finite and >= 0, DJ >= 0.
double eye_opening_at_ber(double ui_ps, double rj_rms_ps, double dj_pp_ps,
                          double target_ber,
                          double transition_density = 0.5);

// ---------------------------------------------------------------------------
// Importance-sampled tail measurement
//
// Dual-Dirac extrapolation ASSUMES the deterministic jitter is two
// impulses; a real DDj distribution (ISI over many bit histories) has
// interior mass that the extrapolation ignores. The importance-sampling
// path below MEASURES the tail instead: it draws crossing displacements
// from an empirical DJ distribution convolved with the Gaussian RJ, and
// reaches BER ~ 1e-15 with ~1e5 samples per strobe point by exponential
// tilting — the proposal Gaussian is mean-shifted onto the error
// threshold, and each hit carries the likelihood ratio as its weight.
// The estimator is unbiased for the *model* BER, so in the 1e-9..1e-12
// overlap region it must agree with the closed form ber_at_phase() (the
// sanity pin bench_bathtub and the tests enforce).
// ---------------------------------------------------------------------------

/// Discrete deterministic-jitter distribution: crossing displacement
/// `offset_ps[i]` occurs with probability proportional to `weight[i]`.
struct DjDistribution {
  std::vector<double> offset_ps;
  std::vector<double> weight;
};

/// The dual-Dirac DJ: impulses at +/- dj_pp/2, equal weight.
DjDistribution dual_dirac_dj(double dj_pp_ps);

/// Closed-form BER at strobe offset `x_ps` from the left crossing for
/// Gaussian RJ (sigma = rj_rms_ps > 0) convolved with `dj`:
///   rho/2 * ( E_d[Q((x-d)/sigma)] + E_d[Q((UI-x-d)/sigma)] ).
/// With dj = dual_dirac_dj(DJ) this is the dual-Dirac model including the
/// minor-Dirac term the classic extrapolation formula drops.
double ber_at_phase(double x_ps, double ui_ps, double rj_rms_ps,
                    const DjDistribution& dj,
                    double transition_density = 0.5);

struct TailSimOptions {
  std::size_t n_samples = 100000;  ///< IS samples per strobe point per edge.
  std::size_t n_points = 33;       ///< Strobe phases across [0, UI/2].
  double transition_density = 0.5;
};

struct IsBerPoint {
  double phase_ps = 0.0;   ///< Strobe offset from the left crossing.
  double ber = 0.0;        ///< Importance-sampled estimate.
  double rel_stderr = 0.0; ///< Relative standard error of the estimate.
};

/// Importance-sampled bathtub across [0, UI/2] (the right half mirrors).
/// Deterministic given `rng`'s state; requires rj_rms_ps > 0 (use the
/// analytic eye_opening_at_ber branch for pure-DJ channels).
std::vector<IsBerPoint> importance_sampled_bathtub(double ui_ps,
                                                   double rj_rms_ps,
                                                   const DjDistribution& dj,
                                                   const TailSimOptions& opt,
                                                   util::Rng& rng);

/// Eye opening at `target_ber` read off a measured curve by
/// log-interpolation between the bracketing strobe points. Returns ui_ps
/// when the whole curve is below target, 0 when it never drops below.
double is_eye_opening_at_ber(const std::vector<IsBerPoint>& curve,
                             double ui_ps, double target_ber);

}  // namespace gdelay::meas
