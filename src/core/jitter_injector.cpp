#include "core/jitter_injector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fastmath.h"
#include "util/scratch.h"
#include "util/units.h"

namespace gdelay::core {

namespace {

// The DC operating point of Vctrl: vctrl_dc_v, or mid-range for a
// negative one. Above vctrl_max the clamp would pin every sample to the
// rail and no noise would reach the line.
double dc_operating_point(const JitterInjectorConfig& cfg) {
  const double vmax = cfg.line.stage.vctrl_max_v;
  if (!(cfg.vctrl_dc_v <= vmax))  // NaN fails too
    throw std::invalid_argument(
        "JitterInjector: vctrl_dc_v must be <= vctrl_max_v (< 0: mid-range)");
  return cfg.vctrl_dc_v >= 0.0 ? cfg.vctrl_dc_v : vmax / 2.0;
}

}  // namespace

JitterInjector::JitterInjector(const JitterInjectorConfig& cfg, util::Rng rng)
    : cfg_(cfg),
      vctrl_dc_(dc_operating_point(cfg)),
      line_(cfg.line, rng.fork(1)),
      noise_(1.0 /* unit sigma, scaled per block */, cfg.noise_bandwidth_ghz,
             rng.fork(2)),
      coupler_(cfg.coupling_hp_ghz) {
  set_noise_pp(cfg.noise_pp_v);
  set_sj(cfg.sj_pp_v, cfg.sj_freq_ghz);
}

// Both checks are written so that NaN fails them.

void JitterInjector::set_noise_pp(double pp_v) {
  if (!(pp_v >= 0.0))
    throw std::invalid_argument("JitterInjector: noise_pp must be >= 0");
  noise_pp_ = pp_v;
}

void JitterInjector::set_sj(double pp_v, double freq_ghz) {
  if (!(pp_v >= 0.0 && freq_ghz > 0.0))
    throw std::invalid_argument("JitterInjector: bad SJ parameters");
  sj_pp_ = pp_v;
  sj_freq_ = freq_ghz;
}

void JitterInjector::reset() {
  line_.reset();
  noise_.reset();
  coupler_.reset();
  sj_t_ps_ = 0.0;
}

void JitterInjector::process_block(const double* in, double* out,
                                   std::size_t n, double dt_ps) {
  util::ScratchBuffer vctrl(n);
  double* v = vctrl.data();
  noise_.process_block(v, n, dt_ps);
  const double sigma = util::gaussian_pp_to_sigma(noise_pp_);
  for (std::size_t i = 0; i < n; ++i, sj_t_ps_ += dt_ps) {
    v[i] *= sigma;
    if (sj_pp_ > 0.0)
      v[i] += 0.5 * sj_pp_ * util::det_sin2pi(sj_freq_ * 1e-3 * sj_t_ps_);
  }
  coupler_.process_block(v, v, n, dt_ps);
  const double vmax = cfg_.line.stage.vctrl_max_v;
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::clamp(vctrl_dc_ + v[i], 0.0, vmax);
  line_.process_block(in, v, out, n, dt_ps);
}

sig::Waveform JitterInjector::process(const sig::Waveform& in) {
  return analog::run_blocked(*this, in);
}

}  // namespace gdelay::core
