// The coarse delay section of Fig. 8: a 1:4 fanout buffer drives four
// controlled-length differential transmission lines (nominally 0, 33, 66,
// 99 ps), and a 4:1 multiplexer selects one of them under two digital
// select lines. Only two levels of active logic touch the signal, which is
// why the paper chose this over cascading a second fine-delay line (noise
// and jitter accumulate per active stage).
#pragma once

#include <array>
#include <vector>

#include "analog/buffer.h"
#include "analog/tline.h"
#include "signal/waveform.h"
#include "util/rng.h"

namespace gdelay::core {

struct CoarseDelayConfig {
  /// Nominal electrical lengths of the four taps.
  std::array<double, 4> tap_delay_ps{0.0, 33.0, 66.0, 99.0};
  /// Per-tap manufacturing error added to the nominal length. The paper's
  /// prototype measured 0/33/70/95 ps (Fig. 9) — a few ps of deviation.
  std::array<double, 4> tap_error_ps{0.0, 0.0, 0.0, 0.0};
  /// Trace loss per 100 ps of electrical length.
  double loss_db_per_100ps = 1.2;
  /// Skin-effect/dielectric roll-off of the traces (0 disables).
  double dispersion_f3db_ghz = 28.0;
  analog::LimitingBufferConfig fanout{};
  analog::LimitingBufferConfig mux{};

  /// Tap errors reproducing the as-built prototype of Fig. 9
  /// (measured 0 / 33 / 70 / 95 ps).
  static CoarseDelayConfig prototype() {
    CoarseDelayConfig c;
    c.tap_error_ps = {0.0, 0.0, 4.0, -4.0};
    return c;
  }
};

class CoarseDelayBlock {
 public:
  static constexpr int kTaps = 4;

  CoarseDelayBlock(const CoarseDelayConfig& cfg, util::Rng rng);

  const CoarseDelayConfig& config() const { return cfg_; }

  /// Programs the two select lines (tap in [0, 3]).
  void select(int tap);
  int selected() const { return selected_; }

  /// Nominal + error length of a tap.
  double tap_delay_ps(int tap) const;

  /// Independent deterministic noise streams for the active buffers of a
  /// cloned block (the passive taps carry no noise).
  void fork_noise(std::uint64_t stream);

  void reset();
  /// The w == 1 call of process_lanes().
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) {
    analog::solo_block(this, in, out, n, dt_ps);
  }
  /// The lane pass (see analog/element.h), stage-major: the fanout
  /// buffers, then one transmission-line pass over each stream's
  /// selected tap, then the mux buffers. A tap that is not selected is
  /// not advanced and keeps its state; reset() resets all four.
  ///
  /// select() between blocks still switches the mux at once, but the
  /// newly selected line resumes from the state it was left in (its
  /// reset state if it never ran, in which case it charges to the first
  /// input it sees) rather than from the fanout history it missed. So
  /// for a short while after a mid-run switch the output is not that of
  /// a block which had the tap selected from the start: about the tap's
  /// length plus a few dispersion time constants (a 3.2 Gbps PRBS7
  /// record, tap 0 -> 3: within 1 mV after 130 ps, 1 nV after 440 ps,
  /// bit-exact after 750 ps at worst; pinned by
  /// CoarseDelay.MidRunSwitchSettlesToTheSelectedTap).
  /// Every select in the library comes before a reset, so no workload
  /// sees the transient.
  static void process_lanes(CoarseDelayBlock* const* c, std::size_t w,
                            const double* in, double* out, std::size_t n,
                            double dt_ps);
  sig::Waveform process(const sig::Waveform& in);

 private:
  CoarseDelayConfig cfg_;
  int selected_ = 0;
  analog::LimitingBuffer fanout_;
  // Held by value so the block (and the channel around it) is copyable:
  // the parallel calibration sweeps clone one programmed channel per
  // sweep point. Only taps_[selected_] advances in a pass.
  std::vector<analog::TransmissionLine> taps_;
  analog::LimitingBuffer mux_;
};

}  // namespace gdelay::core
