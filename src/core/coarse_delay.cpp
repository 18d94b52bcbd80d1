#include "core/coarse_delay.h"

#include <stdexcept>

#include "util/scratch.h"

namespace gdelay::core {

CoarseDelayBlock::CoarseDelayBlock(const CoarseDelayConfig& cfg,
                                   util::Rng rng)
    : cfg_(cfg), fanout_(cfg.fanout, rng.fork(1)), mux_(cfg.mux, rng.fork(2)) {
  taps_.reserve(kTaps);
  for (int i = 0; i < kTaps; ++i) {
    const double len = cfg.tap_delay_ps[static_cast<std::size_t>(i)] +
                       cfg.tap_error_ps[static_cast<std::size_t>(i)];
    if (!(len >= 0.0))
      throw std::invalid_argument("CoarseDelayBlock: negative tap length");
    analog::TransmissionLineConfig tl;
    tl.delay_ps = len;
    tl.loss_db = analog::trace_loss_db(len, cfg.loss_db_per_100ps);
    tl.dispersion_f3db_ghz = cfg.dispersion_f3db_ghz;
    taps_.emplace_back(tl);
  }
}

void CoarseDelayBlock::select(int tap) {
  if (tap < 0 || tap >= kTaps)
    throw std::invalid_argument("CoarseDelayBlock: tap out of range");
  selected_ = tap;
}

double CoarseDelayBlock::tap_delay_ps(int tap) const {
  if (tap < 0 || tap >= kTaps)
    throw std::invalid_argument("CoarseDelayBlock: tap out of range");
  return cfg_.tap_delay_ps[static_cast<std::size_t>(tap)] +
         cfg_.tap_error_ps[static_cast<std::size_t>(tap)];
}

void CoarseDelayBlock::fork_noise(std::uint64_t stream) {
  fanout_.fork_noise(stream);
  mux_.fork_noise(stream);
}

void CoarseDelayBlock::reset() {
  fanout_.reset();
  for (auto& t : taps_) t.reset();
  mux_.reset();
}

void CoarseDelayBlock::process_lanes(CoarseDelayBlock* const* c,
                                     std::size_t w, const double* in,
                                     double* out, std::size_t n,
                                     double dt_ps) {
  util::ScratchBuffer fan(n * w);
  analog::LimitingBuffer::process_lanes(
      analog::parts(c, w, &CoarseDelayBlock::fanout_).data(), w, in,
      fan.data(), n, dt_ps);
  analog::LaneArray<analog::TransmissionLine*> taps(w, [&](std::size_t s) {
    return &c[s]->taps_[static_cast<std::size_t>(c[s]->selected_)];
  });
  analog::TransmissionLine::process_lanes(taps.data(), w, fan.data(), out, n,
                                          dt_ps);
  analog::LimitingBuffer::process_lanes(
      analog::parts(c, w, &CoarseDelayBlock::mux_).data(), w, out, out, n,
      dt_ps);
}

sig::Waveform CoarseDelayBlock::process(const sig::Waveform& in) {
  return analog::run_blocked(*this, in);
}

}  // namespace gdelay::core
