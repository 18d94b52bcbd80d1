#include "core/channel.h"

namespace gdelay::core {

VariableDelayChannel::VariableDelayChannel(const ChannelConfig& cfg,
                                           util::Rng rng)
    : cfg_(cfg), coarse_(cfg.coarse, rng.fork(10)), fine_(cfg.fine, rng.fork(20)) {}

void VariableDelayChannel::reset() {
  coarse_.reset();
  fine_.reset();
}

void VariableDelayChannel::process_block(const double* in, double* out,
                                         std::size_t n, double dt_ps) {
  coarse_.process_block(in, out, n, dt_ps);
  fine_.process_block(out, out, n, dt_ps);
}

sig::Waveform VariableDelayChannel::process(const sig::Waveform& in) {
  return analog::run_blocked(*this, in);
}

}  // namespace gdelay::core
