#include "core/clock_shifter.h"

#include <cmath>
#include <stdexcept>

namespace gdelay::core {

ClockPhaseShifter::ClockPhaseShifter(const ClockPhaseShifterConfig& cfg,
                                     util::Rng rng)
    : cfg_(cfg), rng_(rng) {
  if (!(cfg.period_ps > 0.0))
    throw std::invalid_argument("ClockPhaseShifter: period must be > 0");
  if (cfg.phase_steps < 2)
    throw std::invalid_argument("ClockPhaseShifter: need >= 2 phase steps");
}

double ClockPhaseShifter::step_ps() const {
  return cfg_.period_ps / static_cast<double>(cfg_.phase_steps);
}

void ClockPhaseShifter::set_phase_ps(double phase_ps) {
  double p = std::fmod(phase_ps, cfg_.period_ps);
  if (p < 0.0) p += cfg_.period_ps;
  phase_ = std::round(p / step_ps()) * step_ps();
  if (phase_ >= cfg_.period_ps) phase_ -= cfg_.period_ps;
}

sig::Waveform ClockPhaseShifter::process(const sig::Waveform& clock) {
  // Ideal interpolator: a transport delay of the programmed phase, plus
  // slowly-varying phase noise (modelled as a per-run random offset plus
  // per-sample dither well below the edge rate).
  const double noise =
      cfg_.phase_noise_rms_ps > 0.0
          ? rng_.gaussian(0.0, cfg_.phase_noise_rms_ps)
          : 0.0;
  analog::FractionalDelay line(phase_ + noise + cfg_.period_ps);
  // The extra full period keeps the delay positive for any phase; on a
  // periodic clock it is invisible.
  sig::Waveform out(clock.t0_ps(), clock.dt_ps(), clock.size());
  line.reset();
  if (clock.size() > 0)
    line.process_block(clock.samples().data(), out.samples().data(),
                       clock.size(), clock.dt_ps());
  return out;
}

}  // namespace gdelay::core
