// One ATE pin-electronics channel (a Teradyne SB6G-class 6.4 Gbps source).
//
// Models exactly the properties the paper's application cares about:
//  - an intrinsic static skew relative to the other channels of the bus,
//  - a programmable delay with coarse (~100 ps) resolution — the ATE's
//    native deskew knob that is too blunt for parallel-synchronous buses,
//  - source random jitter.
#pragma once

#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace gdelay::ate {

struct AteChannelConfig {
  double rate_gbps = 6.4;
  double static_skew_ps = 0.0;        ///< Intrinsic channel skew.
  double programmable_step_ps = 100.0;///< ATE deskew resolution (Sec. 1).
  double rj_sigma_ps = 1.2;           ///< Source random jitter (sigma).
  sig::SynthConfig synth{};           ///< Electrical properties.

  /// Throws std::invalid_argument "<caller>: <field> must be finite ..."
  /// unless rate_gbps and programmable_step_ps are finite and > 0,
  /// static_skew_ps is finite and rj_sigma_ps is finite and >= 0.
  void validate(const char* caller) const;
};

class AteChannel {
 public:
  /// Throws std::invalid_argument naming the field for a config that
  /// fails AteChannelConfig::validate().
  AteChannel(const AteChannelConfig& cfg, util::Rng rng);

  const AteChannelConfig& config() const { return cfg_; }
  double static_skew_ps() const { return cfg_.static_skew_ps; }

  /// Programs the ATE-native deskew in integer steps (may be negative).
  void program_delay_steps(int steps) { steps_ = steps; }
  int programmed_steps() const { return steps_; }
  /// Best ATE-native correction for a desired delay (rounds to a step,
  /// half away from zero). Throws std::invalid_argument for a non-finite
  /// delay or a step count that does not fit an int.
  int steps_for(double delay_ps) const;

  /// Total launch offset: static skew + programmed coarse delay.
  double launch_offset_ps() const;

  /// Independent deterministic source-jitter stream for a cloned channel
  /// (see NoiseSource::fork_noise for the sweep discipline).
  void fork_noise(std::uint64_t stream) { rng_ = rng_.fork(stream); }

  /// Generates the channel's output for a bit pattern. Edge times include
  /// the launch offset; the reported ideal edges stay on the unskewed
  /// grid so callers can measure skew against the bus reference.
  sig::SynthResult drive(const sig::BitPattern& bits);

 private:
  AteChannelConfig cfg_;
  int steps_ = 0;
  util::Rng rng_;
};

}  // namespace gdelay::ate
