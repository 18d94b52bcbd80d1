#include "analog/primitives.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "backend/backend.h"
#include "util/fastmath.h"
#include "util/scratch.h"
#include "util/units.h"

namespace gdelay::analog {

// Every range check below is written so that NaN fails it.

SinglePoleFilter::SinglePoleFilter(double f3db_ghz) : f3db_(f3db_ghz) {
  if (!(f3db_ghz > 0.0))
    throw std::invalid_argument("SinglePoleFilter: f3dB must be > 0");
}

double SinglePoleFilter::tau_ps() const {
  return 1000.0 / (2.0 * util::kPi * f3db_);
}

double SinglePoleFilter::alpha_for(double dt_ps) {
  if (dt_ps != blk_dt_) {
    blk_dt_ = dt_ps;
    blk_alpha_ = 1.0 - util::det_exp(-dt_ps / tau_ps());
  }
  return blk_alpha_;
}

void SinglePoleFilter::process_lanes(SinglePoleFilter* const* f,
                                     std::size_t w, const double* in,
                                     double* out, std::size_t n,
                                     double dt_ps) {
  LaneArray<double> alpha(w, [&](std::size_t s) {
    return f[s]->alpha_for(dt_ps);
  });
  LaneArray<backend::OnePoleState*> st(w, [&](std::size_t s) {
    return &f[s]->st_;
  });
  backend::one_pole(in, out, n, w, alpha.data(), st.data());
}

SlewRateLimiter::SlewRateLimiter(double slew_v_per_ps, double tau_lin_ps,
                                 double leak_tau_ps)
    : slew_(slew_v_per_ps), tau_lin_(tau_lin_ps), leak_tau_(leak_tau_ps) {
  if (!(slew_v_per_ps > 0.0))
    throw std::invalid_argument("SlewRateLimiter: slew must be > 0");
  if (!(tau_lin_ps >= 0.0))
    throw std::invalid_argument("SlewRateLimiter: tau_lin must be >= 0");
  if (!(leak_tau_ps >= 0.0))
    throw std::invalid_argument("SlewRateLimiter: leak_tau must be >= 0");
}

void SlewRateLimiter::prime(double dt_ps) {
  if (dt_ps == blk_dt_) return;
  blk_dt_ = dt_ps;
  blk_.max_step = slew_ * dt_ps;
  blk_.has_lin = tau_lin_ > 0.0;
  blk_.has_leak = leak_tau_ > 0.0;
  blk_.lin = blk_.has_lin ? 1.0 - util::det_exp(-dt_ps / tau_lin_) : 1.0;
  blk_.leak = blk_.has_leak ? 1.0 - util::det_exp(-dt_ps / leak_tau_) : 0.0;
}

void SlewRateLimiter::process_lanes(SlewRateLimiter* const* l, std::size_t w,
                                    const double* in, double* out,
                                    std::size_t n, double dt_ps) {
  LaneArray<backend::SlewCoeffs> c(w, [&](std::size_t s) {
    l[s]->prime(dt_ps);
    return l[s]->blk_;
  });
  LaneArray<backend::SlewState*> st(w, [&](std::size_t s) {
    return &l[s]->st_;
  });
  backend::slew(in, out, n, w, c.data(), st.data());
}

TanhLimiter::TanhLimiter(double gain, double vsat_v)
    : gain_(gain), vsat_(vsat_v) {
  if (!(gain > 0.0 && vsat_v > 0.0))
    throw std::invalid_argument("TanhLimiter: gain and vsat must be > 0");
}

void TanhLimiter::process_lanes(TanhLimiter* const* l, std::size_t w,
                                const double* in, double* out, std::size_t n,
                                double /*dt_ps*/) {
  // Stateless: y = vsat * det_tanh(gain * x / vsat) through the
  // elementwise tanh_stage kernel, bit-exact across backends.
  LaneArray<double> gain(w, [&](std::size_t s) { return l[s]->gain_; });
  LaneArray<double> vsat(w, [&](std::size_t s) { return l[s]->vsat_; });
  backend::active().tanh_stage(in, nullptr, out, n, w, gain.data(),
                               vsat.data(), vsat.data());
}

void GainStage::process_block(const double* in, double* out, std::size_t n,
                              double /*dt_ps*/) {
  backend::active().scale(in, out, n, gain_);
}

NoiseAdder::NoiseAdder(double density_v_sqrtps, util::Rng rng)
    : density_(density_v_sqrtps), rng_(rng) {
  if (!(density_v_sqrtps >= 0.0))
    throw std::invalid_argument("NoiseAdder: density must be >= 0");
}

void NoiseAdder::process_block(const double* in, double* out, std::size_t n,
                               double dt_ps) {
  if (density_ == 0.0) {
    if (out != in) std::copy(in, in + n, out);
    return;
  }
  const double sigma = density_ / std::sqrt(dt_ps);
  util::ScratchBuffer noise(n);
  rng_.fill_gaussian(noise.data(), n, 0.0, sigma);
  for (std::size_t i = 0; i < n; ++i) out[i] = in[i] + noise[i];
}

FractionalDelay::FractionalDelay(double delay_ps) : delay_(delay_ps) {
  if (!(delay_ps >= 0.0))
    throw std::invalid_argument("FractionalDelay: delay must be >= 0");
}

void FractionalDelay::reset() {
  hist_.clear();
  head_ = 0;
  filled_ = 0;
  dt_cached_ = 0.0;
}

void FractionalDelay::ensure_grid(double dt_ps, double vin) {
  if (!hist_.empty() && dt_ps == dt_cached_) return;
  // A NaN or non-positive dt never matches the cache, so every bad dt
  // reaches this check before the slot count is cast to an integer.
  if (!std::isfinite(dt_ps) || dt_ps <= 0.0)
    throw std::invalid_argument("FractionalDelay: dt must be finite and > 0");
  const double slots = std::ceil(delay_ / dt_ps);
  if (!(slots < static_cast<double>(hist_.max_size() - 2)))
    throw std::invalid_argument("FractionalDelay: dt too small for the ring");
  const auto n = static_cast<std::size_t>(slots) + 2;
  if (hist_.empty()) {
    // First use: the line starts "charged" with the first input so there
    // is no artificial startup step.
    hist_.assign(n, vin);
    head_ = 0;
    filled_ = 0;
  } else {
    // Mid-run sample-rate change: resample the stored waveform onto the
    // new grid so the line's charge survives the switch. (Flushing the
    // ring — the old behaviour — teleported the delayed signal to the
    // current input, a delay_ps-long artificial flat segment.)
    const std::size_t n_old = hist_.size();
    const double max_past =
        static_cast<double>(n_old - 1) * dt_cached_;  // deepest stored time
    std::vector<double> next(n);
    // Slot (n - k) holds the sample k new-steps into the past of the
    // *upcoming* write (matching the ring reader below, with head_ = 0).
    // The newest stored sample sits one new-step back; beyond the stored
    // depth we clamp to the oldest value.
    for (std::size_t k = 1; k < n; ++k) {
      const double t_past = std::min(
          static_cast<double>(k - 1) * dt_ps, max_past);
      const double pos = t_past / dt_cached_;
      const auto j = static_cast<std::size_t>(pos);
      const double frac = pos - static_cast<double>(j);
      const std::size_t j1 = std::min(j + 1, n_old - 1);
      const double v0 = hist_[(head_ + n_old - 1 - j) % n_old];
      const double v1 = hist_[(head_ + n_old - 1 - j1) % n_old];
      next[n - k] = v0 + (v1 - v0) * frac;
    }
    next[0] = hist_[(head_ + n_old - 1) % n_old];  // overwritten next write
    hist_ = std::move(next);
    head_ = 0;
    filled_ = n;
  }
  dt_cached_ = dt_ps;
}

void FractionalDelay::process_block(const double* in, double* out,
                                    std::size_t count, double dt_ps) {
  if (count == 0) return;
  ensure_grid(dt_ps, in[0]);
  // Linear interpolation between the two ring slots straddling the
  // delay, with the dt-derived offset hoisted and the ring indices
  // advanced incrementally (one wraparound test per sample).
  const double offset = delay_ / dt_cached_;
  const auto k = static_cast<std::size_t>(offset);
  const double frac = offset - static_cast<double>(k);
  const std::size_t n = hist_.size();
  std::size_t head = head_;
  std::size_t i0 = (head + n - (k % n)) % n;
  for (std::size_t i = 0; i < count; ++i) {
    hist_[head] = in[i];
    const std::size_t i1 = i0 == 0 ? n - 1 : i0 - 1;
    const double v0 = hist_[i0];
    const double v1 = hist_[i1];
    out[i] = v0 + (v1 - v0) * frac;
    if (++head == n) head = 0;
    if (++i0 == n) i0 = 0;
  }
  head_ = head;
  filled_ = std::min(n, filled_ + count);
}

}  // namespace gdelay::analog
