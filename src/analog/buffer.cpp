#include "analog/buffer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "backend/backend.h"
#include "util/fastmath.h"
#include "util/scratch.h"

namespace gdelay::analog {

VariableGainBuffer::VariableGainBuffer(const VgaBufferConfig& cfg,
                                       util::Rng rng)
    : cfg_(cfg),
      vctrl_(cfg.vctrl_max_v),
      ctrl_norm_(util::det_tanh(cfg.ctrl_shape * 0.5)),
      input_(cfg.input_gain, cfg.input_sat_v),
      lpf_(cfg.f3db_ghz),
      noise_(cfg.noise_sigma_v, cfg.noise_bandwidth_ghz, rng),
      slew_(cfg.slew_v_per_ps, cfg.slew_tau_lin_ps, cfg.slew_leak_tau_ps),
      out_pole_(cfg.output_pole_f3db_ghz) {
  // Written so that NaN fails each check.
  if (!(cfg.amp_min_v > 0.0 && cfg.amp_max_v > cfg.amp_min_v))
    throw std::invalid_argument("VgaBufferConfig: need 0 < amp_min < amp_max");
  if (!(cfg.vctrl_max_v > 0.0))
    throw std::invalid_argument("VgaBufferConfig: vctrl_max must be > 0");
}

void VariableGainBuffer::set_vctrl(double v) {
  if (std::isnan(v))
    throw std::invalid_argument("VariableGainBuffer: Vctrl is NaN");
  vctrl_ = v;
}

double VariableGainBuffer::amplitude_for(double vctrl) const {
  // std::clamp passes a NaN and det_tanh saturates it to +-1, which would
  // program a half-swing outside [amp_min, amp_max]: NaN maps to NaN.
  if (std::isnan(vctrl)) return vctrl;
  // Normalized control in [0, 1] with gentle tanh-shaped saturation at the
  // ends: the commercial part's gain-control pin responds ~linearly over
  // the middle of its range and compresses near the rails.
  const double u = std::clamp(vctrl / cfg_.vctrl_max_v, 0.0, 1.0);
  const double f =
      (util::det_tanh(cfg_.ctrl_shape * (u - 0.5)) / ctrl_norm_ + 1.0) / 2.0;
  return cfg_.amp_min_v + (cfg_.amp_max_v - cfg_.amp_min_v) * f;
}

double VariableGainBuffer::amplitude() const { return amplitude_for(vctrl_); }

void VariableGainBuffer::reset() {
  input_.reset();
  lpf_.reset();
  noise_.reset();
  slew_.reset();
  out_pole_.reset();
  tail_ = {};
}

backend::VgaTailCoeffs VariableGainBuffer::tail_coeffs(double dt_ps) {
  // Every value is a pure function of (config, vctrl_, dt), so every
  // width, the per-sample-Vctrl path and all backends agree bitwise.
  // amp_frac is hoisted as amp - (amp*frac)*droop rather than
  // amp*(1 - frac*droop): one fewer multiply on the serially-dependent
  // droop chain.
  backend::VgaTailCoeffs c;
  c.amp = amplitude();
  c.droop_frac = cfg_.droop_frac;
  c.amp_frac = c.amp * c.droop_frac;
  c.max_step = cfg_.slew_v_per_ps * dt_ps;
  // Multiplying by the reciprocal (instead of dividing) keeps the
  // expensive divide off the per-sample droop recursion.
  c.inv_max_step = c.max_step > 0.0 ? 1.0 / c.max_step : 0.0;
  c.alpha = 1.0 - util::det_exp(-dt_ps / cfg_.droop_tau_ps);
  slew_.prime(dt_ps);
  c.slew = slew_.blk_;
  return c;
}

void VariableGainBuffer::process_lanes(VariableGainBuffer* const* b,
                                       std::size_t w, const double* in,
                                       const double* amp, double* out,
                                       std::size_t n, double dt_ps) {
  using VGA = VariableGainBuffer;
  util::ScratchBuffer noise(n * w);
  util::ScratchBuffer lim(n * w);
  const backend::Kernels& k = backend::active();
  TanhLimiter::process_lanes(parts(b, w, &VGA::input_).data(), w, in, out, n,
                             dt_ps);
  SinglePoleFilter::process_lanes(parts(b, w, &VGA::lpf_).data(), w, out, out,
                                  n, dt_ps);
  NoiseSource::process_lanes(parts(b, w, &VGA::noise_).data(), w,
                             noise.data(), n, dt_ps);
  // The limiter argument is feedforward — it depends only on the
  // filtered input plus noise, not on the droop/slew recursion — so the
  // tanh pass is hoisted out of the recursion into the elementwise
  // tanh_stage kernel (the AVX2 backend's biggest win in this element).
  // The unit-amplitude limiter output is scaled by the (droop-sagged)
  // half-swing inside the tail: bias droop models the output stage's
  // tail current sagging with recent switching activity, the paper's
  // Fig. 15 roll-off mechanism.
  LaneArray<double> gain(w, [&](std::size_t s) {
    return b[s]->cfg_.output_gain;
  });
  LaneArray<double> ref(w, [&](std::size_t s) {
    return b[s]->cfg_.output_ref_v;
  });
  LaneArray<double> unit(w, [](std::size_t) { return 1.0; });
  k.tanh_stage(out, noise.data(), lim.data(), n, w, gain.data(), ref.data(),
               unit.data());
  // The droop/slew recursion feeds back sample-to-sample through a
  // clamp, so it stays serial in time (a w > 1 call steps up to four
  // streams per time index instead).
  LaneArray<backend::VgaTailCoeffs> c(w, [&](std::size_t s) {
    return b[s]->tail_coeffs(dt_ps);
  });
  LaneArray<backend::SlewState*> slew(w, [&](std::size_t s) {
    return &b[s]->slew_.st_;
  });
  LaneArray<backend::VgaTailState*> tail(w, [&](std::size_t s) {
    return &b[s]->tail_;
  });
  backend::vga_tail(lim.data(), amp, out, n, w, c.data(), slew.data(),
                    tail.data());
  SinglePoleFilter::process_lanes(parts(b, w, &VGA::out_pole_).data(), w, out,
                                  out, n, dt_ps);
}

LimitingBuffer::LimitingBuffer(const LimitingBufferConfig& cfg, util::Rng rng)
    : cfg_(cfg),
      input_(cfg.input_gain, cfg.input_sat_v),
      lpf_(cfg.f3db_ghz),
      noise_(cfg.noise_sigma_v, cfg.noise_bandwidth_ghz, rng),
      slew_(cfg.slew_v_per_ps) {
  if (!(cfg.out_swing_v > 0.0))
    throw std::invalid_argument("LimitingBufferConfig: out_swing must be > 0");
}

void LimitingBuffer::reset() {
  input_.reset();
  lpf_.reset();
  noise_.reset();
  slew_.reset();
}

void LimitingBuffer::process_lanes(LimitingBuffer* const* b, std::size_t w,
                                   const double* in, double* out,
                                   std::size_t n, double dt_ps) {
  util::ScratchBuffer noise(n * w);
  TanhLimiter::process_lanes(parts(b, w, &LimitingBuffer::input_).data(), w,
                             in, out, n, dt_ps);
  SinglePoleFilter::process_lanes(parts(b, w, &LimitingBuffer::lpf_).data(),
                                  w, out, out, n, dt_ps);
  NoiseSource::process_lanes(parts(b, w, &LimitingBuffer::noise_).data(), w,
                             noise.data(), n, dt_ps);
  // Elementwise limiting stage through the backend tanh_stage kernel:
  // out_swing * det_tanh(output_gain * (x + noise) / output_ref).
  LaneArray<double> gain(w, [&](std::size_t s) {
    return b[s]->cfg_.output_gain;
  });
  LaneArray<double> ref(w, [&](std::size_t s) {
    return b[s]->cfg_.output_ref_v;
  });
  LaneArray<double> swing(w, [&](std::size_t s) {
    return b[s]->cfg_.out_swing_v;
  });
  backend::active().tanh_stage(out, noise.data(), out, n, w, gain.data(),
                               ref.data(), swing.data());
  SlewRateLimiter::process_lanes(parts(b, w, &LimitingBuffer::slew_).data(), w,
                                 out, out, n, dt_ps);
}

}  // namespace gdelay::analog
