// The fine-adjustment delay line of Fig. 6: N cascaded variable-gain
// buffers sharing one control voltage, followed by a limiting output
// stage that recovers full logic swing.
//
// Each stage contributes ~10 ps of amplitude-dependent delay; the paper's
// prototype uses N = 4 for a measured range of ~50-56 ps (Fig. 7) and
// compares against an earlier N = 2 build (Fig. 15). The common Vctrl
// reflects the paper's simplification of driving all stages from one DAC;
// per-stage control is available for the ablation study.
//
// The line owns the common Vctrl. A Vctrl that moves during a run (jitter
// injection) is mapped to the stages' half-swing A(Vctrl) once per
// sample, and every stage reads that one block: the stages are built from
// one config, so they would each compute the same values.
#pragma once

#include <vector>

#include "analog/buffer.h"
#include "signal/waveform.h"
#include "util/rng.h"

namespace gdelay::core {

struct FineDelayConfig {
  int n_stages = 4;
  analog::VgaBufferConfig stage{};
  analog::LimitingBufferConfig output_stage{};

  /// Convenience: the paper's early 2-stage build.
  static FineDelayConfig two_stage() {
    FineDelayConfig c;
    c.n_stages = 2;
    return c;
  }
};

class FineDelayLine {
 public:
  FineDelayLine(const FineDelayConfig& cfg, util::Rng rng);

  int n_stages() const { return static_cast<int>(stages_.size()); }
  const FineDelayConfig& config() const { return cfg_; }
  double vctrl_max() const { return cfg_.stage.vctrl_max_v; }

  /// Programs all stages (the paper's common-Vctrl arrangement). Throws
  /// std::invalid_argument on NaN; +-Inf program the rails.
  void set_vctrl(double v);
  double vctrl() const { return vctrl_; }

  /// Per-stage override for the separate-control ablation. Throws
  /// std::invalid_argument on NaN.
  void set_stage_vctrl(int stage, double v);
  double stage_vctrl(int stage) const;

  /// Switches every stage (and the output buffer) to an independent
  /// deterministic noise stream — used to decorrelate clones in the
  /// parallel calibration sweeps (one stream per sweep point).
  void fork_noise(std::uint64_t stream);

  void reset();

  /// Fixed-Vctrl block: process_block(in, nullptr, out, n, dt_ps).
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) {
    analog::solo_block(this, in, nullptr, out, n, dt_ps);
  }

  /// Advances `n` samples. `vctrl[i]` is the common control voltage of
  /// sample i — the primitive behind jitter injection (Vctrl varies
  /// during the run); nullptr holds each stage's current Vctrl. Each
  /// sample is mapped to A(Vctrl) once and shared by every stage. After
  /// a modulated block the line and every stage hold vctrl[n-1], as
  /// set_vctrl() would leave them. A NaN sample is not rejected: it
  /// maps to a NaN half-swing, which poisons every stage from that
  /// sample on. `vctrl` must not alias `out`. The w == 1 call of
  /// process_lanes().
  void process_block(const double* in, const double* vctrl, double* out,
                     std::size_t n, double dt_ps) {
    analog::solo_block(this, in, vctrl, out, n, dt_ps);
  }

  /// The lane pass (see analog/element.h). Below four lines the stages
  /// run as a wavefront over 64-sample sub-blocks, stage k on sub-block
  /// t - k at step t, each step one VGA lane pass over every (line,
  /// stage) pair, so the serial recursions of different stages overlap;
  /// from four lines on (and for one stage), the whole block goes through
  /// each stage in turn.
  /// No byte depends on the schedule. `vctrl` is interleaved like `in`
  /// (or nullptr). Every line must have the same stage count.
  static void process_lanes(FineDelayLine* const* f, std::size_t w,
                            const double* in, const double* vctrl,
                            double* out, std::size_t n, double dt_ps);

  /// Runs a waveform through a freshly reset line (block path).
  sig::Waveform process(const sig::Waveform& in);

 private:
  FineDelayConfig cfg_;
  double vctrl_;
  std::vector<analog::VariableGainBuffer> stages_;
  analog::LimitingBuffer out_;
};

}  // namespace gdelay::core
