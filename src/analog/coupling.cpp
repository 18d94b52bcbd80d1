#include "analog/coupling.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "backend/backend.h"
#include "util/units.h"
#include "util/fastmath.h"

namespace gdelay::analog {

// Every range check below is written so that NaN fails it.

AcCoupler::AcCoupler(double f_hp_ghz) : f_hp_(f_hp_ghz) {
  if (!(f_hp_ghz > 0.0))
    throw std::invalid_argument("AcCoupler: f_hp must be > 0");
}

void AcCoupler::reset() {
  x_prev_ = 0.0;
  y_ = 0.0;
  first_ = true;
}

void AcCoupler::process_block(const double* in, double* out, std::size_t n,
                              double dt_ps) {
  if (dt_ps != blk_dt_) {
    blk_dt_ = dt_ps;
    const double tau = 1000.0 / (2.0 * util::kPi * f_hp_);
    blk_a_ = tau / (tau + dt_ps);
  }
  const double a = blk_a_;
  std::size_t i = 0;
  if (first_ && n > 0) {
    // Start settled: a DC input produces zero output immediately.
    x_prev_ = in[0];
    y_ = 0.0;
    first_ = false;
    out[i++] = 0.0;
  }
  double y = y_, x_prev = x_prev_;
  for (; i < n; ++i) {
    y = a * (y + in[i] - x_prev);
    x_prev = in[i];
    out[i] = y;
  }
  y_ = y;
  x_prev_ = x_prev;
}

void Attenuator::process_block(const double* in, double* out, std::size_t n,
                               double /*dt_ps*/) {
  for (std::size_t i = 0; i < n; ++i) out[i] = factor_ * in[i];
}

Attenuator::Attenuator(double loss_db)
    : factor_(util::db_loss_to_factor(loss_db)) {
  if (!(loss_db >= 0.0))
    throw std::invalid_argument("Attenuator: loss must be >= 0");
}

NoiseSource::NoiseSource(double sigma_v, double bandwidth_ghz, util::Rng rng)
    : sigma_(sigma_v), bw_(bandwidth_ghz), rng_(rng) {
  if (!(sigma_v >= 0.0))
    throw std::invalid_argument("NoiseSource: sigma must be >= 0");
  if (!(bandwidth_ghz > 0.0))
    throw std::invalid_argument("NoiseSource: bandwidth must be > 0");
}

void NoiseSource::reset() { st_ = {}; }

void NoiseSource::prime(double dt_ps) {
  if (dt_ps == blk_dt_) return;
  blk_dt_ = dt_ps;
  const double tau = 1000.0 / (2.0 * util::kPi * bw_);
  blk_alpha_ = 1.0 - util::det_exp(-dt_ps / tau);
  // Var(y) = Var(x) * alpha / (2 - alpha) for a one-pole filter driven by
  // white noise; scale the white input so Var(y) == sigma^2.
  blk_sx_ = sigma_ * std::sqrt((2.0 - blk_alpha_) / blk_alpha_);
}

void NoiseSource::process_lanes(NoiseSource* const* src, std::size_t w,
                                double* out, std::size_t n, double dt_ps) {
  std::size_t on = 0;
  for (std::size_t s = 0; s < w; ++s) on += src[s]->sigma_ != 0.0;
  if (on == 0) {
    // sigma == 0 advances neither the RNG nor the filter.
    std::fill(out, out + n * w, 0.0);
    return;
  }
  if (on < w) {
    // Mixed on/off across streams (unusual configs): each stream alone.
    per_stream(nullptr, out, n, w, [&](std::size_t s, const double*,
                                       double* col) {
      src[s]->process_block(col, n, dt_ps);
    });
    return;
  }
  // Each stream draws from its own RNG in the solo order (fill_gaussian
  // is chunk-invariant by the Rng contract); the band-limiting filters
  // then advance together.
  per_stream(nullptr, out, n, w, [&](std::size_t s, const double*,
                                     double* col) {
    NoiseSource& ns = *src[s];
    ns.prime(dt_ps);
    ns.rng_.fill_gaussian(col, n, 0.0, ns.blk_sx_);
  });
  LaneArray<double> alpha(w, [&](std::size_t s) {
    return src[s]->blk_alpha_;
  });
  LaneArray<backend::OnePoleState*> st(w, [&](std::size_t s) {
    return &src[s]->st_;
  });
  backend::one_pole(out, out, n, w, alpha.data(), st.data());
}

}  // namespace gdelay::analog
