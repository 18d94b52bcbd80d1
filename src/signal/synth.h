// Waveform synthesis: the "pattern generator" instrument.
//
// Replaces the paper's bench sources (a 7 Gb/s NRZ pattern generator and a
// 6.8 GHz RZ clock source). Produces differential waveforms with
// - tanh-shaped transitions of programmable 20-80 % rise time,
// - per-edge Gaussian random jitter (RJ),
// - optional sinusoidal deterministic jitter (DJ),
// so a reference trace with any of the paper's quoted input TJ values can
// be synthesized and fed through the circuit models.
#pragma once

#include <vector>

#include "signal/pattern.h"
#include "signal/waveform.h"
#include "util/rng.h"

namespace gdelay::sig {

struct SynthConfig {
  double rate_gbps = 6.4;     ///< NRZ bit rate.
  double amplitude_v = 0.4;   ///< Differential levels are +/- amplitude_v.
  double rise_time_ps = 30.0; ///< 20-80 % rise/fall time.
  double dt_ps = 0.25;        ///< Sample spacing.
  double lead_in_ps = 300.0;  ///< Settled time before the first bit edge.
  double tail_ps = 300.0;     ///< Settled time after the last bit.
  double rj_sigma_ps = 0.0;   ///< Gaussian per-edge random jitter (sigma).
  double dj_pp_ps = 0.0;      ///< Sinusoidal deterministic jitter, pk-pk.
  double dj_freq_ghz = 0.0137;///< DJ modulation frequency.

  double unit_interval_ps() const { return 1000.0 / rate_gbps; }
};

struct SynthResult {
  Waveform wf;
  /// Nominal (jitter-free) transition instants, one per bit transition.
  std::vector<double> ideal_edges_ps;
  /// Actual (jittered) transition instants used during synthesis.
  std::vector<double> actual_edges_ps;
  double unit_interval_ps = 0.0;
};

/// One smooth level change: the signal moves by `delta_v` (signed) through
/// a tanh step centered at `t_ps`.
struct Transition {
  double t_ps = 0.0;
  double delta_v = 0.0;
};

/// A fully laid-out synthesis job: sampling grid, initial level, and the
/// time-sorted transition list. All the randomness (RJ draws, DJ phase) is
/// baked in at planning time, so a plan is O(transitions) in memory and
/// rendering it — all at once or chunk by chunk — is deterministic. This
/// split is what lets the streaming executor emit multi-million-sample
/// waveforms without ever materializing them.
struct SynthPlan {
  double t0_ps = 0.0;
  double dt_ps = 1.0;
  std::size_t n = 0;         ///< Total samples the plan renders.
  double level0_v = 0.0;     ///< Level before the first transition.
  double tau_ps = 1.0;       ///< Tanh time constant of every transition.
  std::vector<Transition> transitions;  ///< Sorted by t_ps.
  /// Edge bookkeeping, exactly as in SynthResult.
  std::vector<double> ideal_edges_ps;
  std::vector<double> actual_edges_ps;
  double unit_interval_ps = 0.0;
};

/// Planning counterparts of the synthesize_* functions below: identical
/// configuration, RNG draw order and edge lists, but no waveform yet.
SynthPlan plan_nrz(const BitPattern& bits, const SynthConfig& cfg,
                   util::Rng* rng = nullptr);
SynthPlan plan_clock(double f_ghz, std::size_t n_cycles,
                     const SynthConfig& cfg, util::Rng* rng = nullptr);

/// Renders the whole plan into a waveform (the materializing path).
Waveform render(const SynthPlan& plan);

/// Resumable renderer over a SynthPlan. Renders consecutive sample spans
/// on demand; the two-pointer sweep state (first in-window transition,
/// accumulated base level) carries across calls, so the emitted samples
/// are byte-identical to render() at any chunking. The plan must outlive
/// the renderer.
class TransitionRenderer {
 public:
  explicit TransitionRenderer(const SynthPlan& plan) : plan_(&plan) {
    rewind();
  }

  /// Restarts from sample 0.
  void rewind();
  /// Renders min(max_n, remaining) samples into dst; returns the count
  /// (0 once the plan is exhausted).
  std::size_t render(double* dst, std::size_t max_n);

 private:
  const SynthPlan* plan_;
  std::size_t i_ = 0;   ///< Next sample index.
  std::size_t lo_ = 0;  ///< First transition not yet fully in the past.
  double base_ = 0.0;   ///< Sum of levels of fully past transitions.
};

/// NRZ waveform for a bit pattern. `rng` may be null when rj_sigma_ps == 0.
SynthResult synthesize_nrz(const BitPattern& bits, const SynthConfig& cfg,
                           util::Rng* rng = nullptr);

/// Square-wave clock at `f_ghz` for `n_cycles` cycles. Equivalent to NRZ
/// alternating data at 2*f_ghz Gbps — the paper's "RZ clock" stimulus used
/// to probe the circuit beyond the NRZ generator's rate limit.
SynthResult synthesize_clock(double f_ghz, std::size_t n_cycles,
                             const SynthConfig& cfg, util::Rng* rng = nullptr);

/// RJ sigma that yields approximately the requested peak-to-peak total
/// jitter when observed over `n_edges` edges (Gaussian order statistics:
/// pp ~= 2 sigma sqrt(2 ln n)).
double rj_sigma_for_tj_pp(double tj_pp_ps, std::size_t n_edges);

}  // namespace gdelay::sig
