// Tests for the bathtub (BER extrapolation) instrument.
#include <gtest/gtest.h>

#include <cmath>

#include "measure/bathtub.h"
#include "util/rng.h"

namespace gm = gdelay::meas;
using gdelay::util::Rng;

TEST(Bathtub, QFunction) {
  EXPECT_NEAR(gm::q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(gm::q_function(1.0), 0.15866, 1e-4);
  EXPECT_NEAR(gm::q_function(7.0), 1.28e-12, 2e-13);
  EXPECT_NEAR(gm::q_function(-1.0), 1.0 - 0.15866, 1e-4);
}

TEST(Bathtub, ShapeIsBathtub) {
  const auto curve = gm::bathtub_curve(156.25, 2.0, 10.0);
  ASSERT_GE(curve.size(), 3u);
  // High BER at the edges, tiny in the middle.
  EXPECT_GT(curve.front().ber, 0.2);
  EXPECT_GT(curve.back().ber, 0.2);
  const auto mid = curve[curve.size() / 2];
  EXPECT_LT(mid.ber, 1e-12);
  // Symmetric.
  EXPECT_NEAR(curve.front().ber, curve.back().ber, 1e-9);
}

TEST(Bathtub, MoreJitterClosesEye) {
  const double open_small =
      gm::eye_opening_at_ber(156.25, 1.0, 0.0, 1e-12);
  const double open_big = gm::eye_opening_at_ber(156.25, 4.0, 0.0, 1e-12);
  const double open_dj = gm::eye_opening_at_ber(156.25, 1.0, 30.0, 1e-12);
  EXPECT_GT(open_small, open_big);
  EXPECT_GT(open_small, open_dj);
  EXPECT_GT(open_big, 0.0);
}

TEST(Bathtub, ClosedEyeReportsZero) {
  // RJ sigma = 20 ps on a 156 ps UI: hopeless at 1e-12.
  EXPECT_DOUBLE_EQ(gm::eye_opening_at_ber(156.25, 20.0, 0.0, 1e-12), 0.0);
}

TEST(Bathtub, OpeningMatchesAnalyticGaussian) {
  // Pure RJ: opening = UI - 2*Qinv(2*ber/rho)*sigma. Check via the known
  // Q(7.03) ~ 1e-12 point: target 0.25e-12 per side at rho 0.5 ->
  // z with Q(z) = 1e-12... verify consistency within a ps.
  const double ui = 200.0, sigma = 3.0, ber = 1e-12;
  const double opening = gm::eye_opening_at_ber(ui, sigma, 0.0, ber, 0.5);
  // Solve expected: Q(z) = 2*ber/rho = 4e-12 -> z ~ 6.85.
  double z = 6.0;
  for (int i = 0; i < 100; ++i) {
    const double f = gm::q_function(z) - 4e-12;
    z -= f / (-std::exp(-z * z / 2.0) / std::sqrt(2.0 * 3.14159265358979));
  }
  EXPECT_NEAR(opening, ui - 2.0 * z * sigma, 1.0);
}

TEST(Bathtub, FromJitterReport) {
  gm::JitterReport rep;
  rep.ui_ps = 156.25;
  rep.rj_rms_ps = 2.0;
  rep.dj_pp_ps = 8.0;
  const auto curve = gm::bathtub_curve(rep);
  EXPECT_EQ(curve.size(), 65u);
  // Zero-RJ reports are guarded (no division blowup).
  rep.rj_rms_ps = 0.0;
  EXPECT_NO_THROW(gm::bathtub_curve(rep));
}

TEST(Bathtub, ValidatesInput) {
  EXPECT_THROW(gm::bathtub_curve(0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(gm::bathtub_curve(100.0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(gm::bathtub_curve(100.0, 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(gm::eye_opening_at_ber(100.0, 1.0, 0.0, 0.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RJ -> 0: the analytic pure-DJ branch (regression for the old sigma floor)
// ---------------------------------------------------------------------------

TEST(Bathtub, PureDjOpeningIsExact) {
  // With RJ exactly 0 the bathtub is a step: BER = rho/2 on the Dirac
  // span, exactly 0 between. The opening is UI - DJ with no sigma floor.
  EXPECT_EQ(gm::eye_opening_at_ber(156.25, 0.0, 40.0, 1e-12), 156.25 - 40.0);
  EXPECT_EQ(gm::eye_opening_at_ber(156.25, 0.0, 0.0, 1e-15), 156.25);
  EXPECT_EQ(gm::eye_opening_at_ber(156.25, 0.0, 200.0, 1e-12), 0.0);
  // A target above the step height is met everywhere.
  EXPECT_EQ(gm::eye_opening_at_ber(156.25, 0.0, 40.0, 0.3), 156.25);
  EXPECT_THROW(gm::eye_opening_at_ber(156.25, 0.0, -1.0, 1e-12),
               std::invalid_argument);
}

TEST(Bathtub, OpeningIsContinuousAsRjVanishes) {
  // The Gaussian branch must converge to the analytic value as sigma -> 0
  // instead of jumping at a hidden floor.
  const double ui = 156.25, dj = 40.0;
  const double exact = gm::eye_opening_at_ber(ui, 0.0, dj, 1e-12);
  double prev_err = 1e9;
  for (double sigma : {1.0, 0.1, 0.01, 0.001}) {
    const double err =
        std::abs(gm::eye_opening_at_ber(ui, sigma, dj, 1e-12) - exact);
    EXPECT_LT(err, prev_err + 1e-12) << "sigma " << sigma;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 0.05);  // within 50 fs of analytic at sigma = 1 fs
}

// ---------------------------------------------------------------------------
// Importance-sampled tails vs the closed form
// ---------------------------------------------------------------------------

TEST(IsBathtub, DualDiracDistribution) {
  const gm::DjDistribution dj = gm::dual_dirac_dj(6.0);
  ASSERT_EQ(dj.offset_ps.size(), 2u);
  EXPECT_EQ(dj.offset_ps[0], -3.0);
  EXPECT_EQ(dj.offset_ps[1], 3.0);
  EXPECT_EQ(dj.weight[0], dj.weight[1]);
}

TEST(IsBathtub, EstimatesMatchClosedFormIntoDeepTails) {
  // The IS estimator is unbiased for the model BER, so every point of
  // the sampled curve must sit within a few standard errors of
  // ber_at_phase — including points far below 1e-12 where a plain MC
  // counter would see zero hits.
  const double ui = 156.25, sigma = 2.0;
  const gm::DjDistribution dj = gm::dual_dirac_dj(12.0);
  gm::TailSimOptions opt;
  opt.n_points = 17;
  Rng rng(90210);
  const auto curve = gm::importance_sampled_bathtub(ui, sigma, dj, opt, rng);
  ASSERT_EQ(curve.size(), opt.n_points);

  std::size_t deep_points = 0;
  for (const auto& p : curve) {
    const double model = gm::ber_at_phase(p.phase_ps, ui, sigma, dj);
    if (model < 1e-300) continue;  // beyond double-precision comparison
    // Floor the tolerance at 8%: at extreme tilts the weight
    // distribution is heavy-tailed and the stderr estimate itself is
    // noisy, so a pure 6-sigma band occasionally under-covers.
    const double tol = std::max(0.08, 6.0 * p.rel_stderr);
    EXPECT_NEAR(p.ber / model, 1.0, tol)
        << "phase " << p.phase_ps << " model " << model;
    if (model < 1e-12) ++deep_points;
  }
  // The sweep must actually have probed the extrapolation-only regime.
  EXPECT_GE(deep_points, 3u);
}

TEST(IsBathtub, DeterministicGivenRngState) {
  const double ui = 156.25, sigma = 2.0;
  const gm::DjDistribution dj = gm::dual_dirac_dj(12.0);
  gm::TailSimOptions opt;
  opt.n_points = 5;
  opt.n_samples = 2000;
  Rng a(7), b(7);
  const auto ca = gm::importance_sampled_bathtub(ui, sigma, dj, opt, a);
  const auto cb = gm::importance_sampled_bathtub(ui, sigma, dj, opt, b);
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].ber, cb[i].ber) << i;
    EXPECT_EQ(ca[i].rel_stderr, cb[i].rel_stderr) << i;
  }
}

TEST(IsBathtub, EyeOpeningInterpolatesOnTheLogCurve) {
  // Synthetic exactly-exponential curve: BER = 1e-3 * 10^(-phase/10), so
  // the log-linear interpolation is exact and the opening closed-form.
  std::vector<gm::IsBerPoint> curve;
  for (int i = 0; i <= 6; ++i) {
    gm::IsBerPoint p;
    p.phase_ps = 10.0 * i;
    p.ber = 1e-3 * std::pow(10.0, -static_cast<double>(i));
    curve.push_back(p);
  }
  const double ui = 156.25;
  // Target 1e-7 falls mid-segment: crossing at phase 40, opening ui - 80.
  EXPECT_NEAR(gm::is_eye_opening_at_ber(curve, ui, 1e-7), ui - 80.0, 1e-9);
  // Target crossing exactly on a sample point.
  EXPECT_NEAR(gm::is_eye_opening_at_ber(curve, ui, 1e-6), ui - 60.0, 1e-9);
  // Whole curve below target: open everywhere.
  EXPECT_EQ(gm::is_eye_opening_at_ber(curve, ui, 1e-2), ui);
  // Whole curve above target: closed.
  EXPECT_EQ(gm::is_eye_opening_at_ber(curve, ui, 1e-12), 0.0);
  EXPECT_THROW(gm::is_eye_opening_at_ber({curve[0]}, ui, 1e-7),
               std::invalid_argument);
  EXPECT_THROW(gm::is_eye_opening_at_ber(curve, ui, 0.0),
               std::invalid_argument);
}

TEST(IsBathtub, ZeroTailPointFallsBackToLinear) {
  std::vector<gm::IsBerPoint> curve(2);
  curve[0].phase_ps = 0.0;
  curve[0].ber = 1e-6;
  curve[1].phase_ps = 10.0;
  curve[1].ber = 0.0;  // far point measured zero hits
  const double got = gm::is_eye_opening_at_ber(curve, 100.0, 1e-7);
  // Linear fallback: crossing at 0 + 10 * (1e-6 - 1e-7) / 1e-6 = 9.
  EXPECT_NEAR(got, 100.0 - 2.0 * 9.0, 1e-9);
}
