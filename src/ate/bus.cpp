#include "ate/bus.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gdelay::ate {

AteBus::AteBus(const AteBusConfig& cfg, util::Rng rng) : cfg_(cfg) {
  if (cfg.n_channels < 1)
    throw std::invalid_argument("AteBus: need >= 1 channel");
  AteChannelConfig cc;
  cc.rate_gbps = cfg.rate_gbps;
  cc.programmable_step_ps = cfg.programmable_step_ps;
  cc.rj_sigma_ps = cfg.rj_sigma_ps;
  cc.synth = cfg.synth;
  cc.validate("AteBus");
  if (!(std::isfinite(cfg.skew_span_ps) && cfg.skew_span_ps >= 0.0))
    throw std::invalid_argument("AteBus: skew_span_ps must be finite and >= 0");
  channels_.reserve(static_cast<std::size_t>(cfg.n_channels));
  for (int i = 0; i < cfg.n_channels; ++i) {
    cc.static_skew_ps =
        rng.uniform(-cfg.skew_span_ps / 2.0, cfg.skew_span_ps / 2.0);
    channels_.emplace_back(cc, rng.fork(static_cast<std::uint64_t>(i)));
  }
}

double AteBus::launch_skew_span_ps() const {
  double lo = 1e300, hi = -1e300;
  for (const auto& ch : channels_) {
    lo = std::min(lo, ch.launch_offset_ps());
    hi = std::max(hi, ch.launch_offset_ps());
  }
  return hi - lo;
}

void AteBus::apply_native_deskew() {
  for (auto& ch : channels_)
    ch.program_delay_steps(-ch.steps_for(ch.static_skew_ps()));
}

}  // namespace gdelay::ate
