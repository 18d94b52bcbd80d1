#include "core/channel.h"

namespace gdelay::core {

VariableDelayChannel::VariableDelayChannel(const ChannelConfig& cfg,
                                           util::Rng rng)
    : cfg_(cfg), coarse_(cfg.coarse, rng.fork(10)), fine_(cfg.fine, rng.fork(20)) {}

void VariableDelayChannel::reset() {
  coarse_.reset();
  fine_.reset();
}

void VariableDelayChannel::process_lanes(VariableDelayChannel* const* c,
                                         std::size_t w, const double* in,
                                         double* out, std::size_t n,
                                         double dt_ps) {
  CoarseDelayBlock::process_lanes(
      analog::parts(c, w, &VariableDelayChannel::coarse_).data(), w, in, out,
      n, dt_ps);
  FineDelayLine::process_lanes(
      analog::parts(c, w, &VariableDelayChannel::fine_).data(), w, out,
      nullptr, out, n, dt_ps);
}

sig::Waveform VariableDelayChannel::process(const sig::Waveform& in) {
  return analog::run_blocked(*this, in);
}

}  // namespace gdelay::core
