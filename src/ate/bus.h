// A parallel ATE bus: N nominally synchronous channels with random
// channel-to-channel skew — the situation of Fig. 2(a).
#pragma once

#include <vector>

#include "ate/ate_channel.h"
#include "util/rng.h"

namespace gdelay::ate {

struct AteBusConfig {
  int n_channels = 4;
  double rate_gbps = 6.4;
  /// Channel skews are drawn uniformly from +/- skew_span/2.
  double skew_span_ps = 300.0;
  double programmable_step_ps = 100.0;
  double rj_sigma_ps = 1.2;
  sig::SynthConfig synth{};
};

class AteBus {
 public:
  /// Throws std::invalid_argument for n_channels < 1, and, naming the
  /// field, unless rate_gbps and programmable_step_ps are finite and > 0,
  /// rj_sigma_ps is finite and >= 0 and skew_span_ps is finite and >= 0.
  /// The checks come before any skew is drawn.
  AteBus(const AteBusConfig& cfg, util::Rng rng);

  const AteBusConfig& config() const { return cfg_; }
  int n_channels() const { return static_cast<int>(channels_.size()); }
  AteChannel& channel(int i) { return channels_.at(static_cast<std::size_t>(i)); }
  const AteChannel& channel(int i) const {
    return channels_.at(static_cast<std::size_t>(i));
  }

  /// Worst-case channel-to-channel launch skew at current programming.
  double launch_skew_span_ps() const;

  /// ATE-native deskew pass: programs each channel's coarse steps to
  /// counteract its static skew as well as the ~100 ps resolution allows
  /// (the bottom half of Fig. 2 — good to +/- half a step, no better).
  void apply_native_deskew();

 private:
  AteBusConfig cfg_;
  std::vector<AteChannel> channels_;
};

}  // namespace gdelay::ate
