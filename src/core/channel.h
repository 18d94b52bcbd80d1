// The combined prototype of Fig. 10: coarse delay section (1:4 fanout,
// four taps, 4:1 mux) followed by the 4-stage fine-adjustment line and
// its amplitude-recovery output stage — 7 active components end to end,
// total range ~140 ps against the application requirement of 120 ps.
#pragma once

#include "core/coarse_delay.h"
#include "core/fine_delay.h"
#include "signal/waveform.h"
#include "util/rng.h"

namespace gdelay::core {

struct ChannelConfig {
  CoarseDelayConfig coarse{};
  FineDelayConfig fine{};

  /// The as-built 2-channel prototype (Fig. 11): measured coarse taps
  /// of Fig. 9, 4 fine stages.
  static ChannelConfig prototype() {
    ChannelConfig c;
    c.coarse = CoarseDelayConfig::prototype();
    return c;
  }
};

class VariableDelayChannel {
 public:
  VariableDelayChannel(const ChannelConfig& cfg, util::Rng rng);

  const ChannelConfig& config() const { return cfg_; }

  CoarseDelayBlock& coarse() { return coarse_; }
  const CoarseDelayBlock& coarse() const { return coarse_; }
  FineDelayLine& fine() { return fine_; }
  const FineDelayLine& fine() const { return fine_; }

  /// Programming interface: coarse select lines + fine control voltage.
  void select_tap(int tap) { coarse_.select(tap); }
  int selected_tap() const { return coarse_.selected(); }
  void set_vctrl(double v) { fine_.set_vctrl(v); }
  double vctrl() const { return fine_.vctrl(); }
  double vctrl_max() const { return fine_.vctrl_max(); }

  /// Independent deterministic noise stream for a cloned channel (one
  /// stream per sweep point in the parallel calibration sweeps).
  void fork_noise(std::uint64_t stream) {
    coarse_.fork_noise(stream);
    fine_.fork_noise(stream);
  }

  void reset();
  /// The w == 1 call of process_lanes().
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) {
    analog::solo_block(this, in, out, n, dt_ps);
  }
  /// The lane pass (see analog/element.h): coarse blocks, then fine
  /// lines. Every fine line must have the same stage count.
  static void process_lanes(VariableDelayChannel* const* c, std::size_t w,
                            const double* in, double* out, std::size_t n,
                            double dt_ps);
  sig::Waveform process(const sig::Waveform& in);

 private:
  ChannelConfig cfg_;
  CoarseDelayBlock coarse_;
  FineDelayLine fine_;
};

}  // namespace gdelay::core
