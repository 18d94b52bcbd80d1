#include "ate/ate_channel.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace gdelay::ate {
namespace {

void require_field(bool ok, const char* caller, const char* field,
                   const char* range) {
  if (!ok)
    throw std::invalid_argument(std::string(caller) + ": " + field +
                                " must be finite" + range);
}

}  // namespace

void AteChannelConfig::validate(const char* caller) const {
  require_field(std::isfinite(rate_gbps) && rate_gbps > 0.0, caller,
                "rate_gbps", " and > 0");
  require_field(std::isfinite(static_skew_ps), caller, "static_skew_ps", "");
  require_field(
      std::isfinite(programmable_step_ps) && programmable_step_ps > 0.0,
      caller, "programmable_step_ps", " and > 0");
  require_field(std::isfinite(rj_sigma_ps) && rj_sigma_ps >= 0.0, caller,
                "rj_sigma_ps", " and >= 0");
}

AteChannel::AteChannel(const AteChannelConfig& cfg, util::Rng rng)
    : cfg_(cfg), rng_(rng) {
  cfg.validate("AteChannel");
}

int AteChannel::steps_for(double delay_ps) const {
  require_field(std::isfinite(delay_ps), "AteChannel::steps_for", "delay_ps",
                "");
  const double steps = std::round(delay_ps / cfg_.programmable_step_ps);
  if (!(steps >= std::numeric_limits<int>::min() &&
        steps <= std::numeric_limits<int>::max()))
    throw std::invalid_argument(
        "AteChannel::steps_for: step count does not fit an int");
  return static_cast<int>(steps);
}

double AteChannel::launch_offset_ps() const {
  return cfg_.static_skew_ps +
         static_cast<double>(steps_) * cfg_.programmable_step_ps;
}

sig::SynthResult AteChannel::drive(const sig::BitPattern& bits) {
  sig::SynthConfig sc = cfg_.synth;
  sc.rate_gbps = cfg_.rate_gbps;
  sc.rj_sigma_ps = cfg_.rj_sigma_ps;
  sig::SynthResult res = sig::synthesize_nrz(bits, sc, &rng_);

  const double off = launch_offset_ps();
  if (off != 0.0) {
    res.wf.shift(off);
    for (auto& t : res.actual_edges_ps) t += off;
    // ideal_edges_ps intentionally stays on the unskewed bus grid.
  }
  return res;
}

}  // namespace gdelay::ate
