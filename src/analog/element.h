// Base interface for behavioral analog elements.
//
// Every element is a causal, stateful sample process: `process_block(in,
// out, n, dt)` advances internal state by `n` sample periods and writes
// one output per input. Elements compose by nesting calls (or `Cascade`),
// and `process()` runs a whole waveform through in kBlockSamples chunks.
//
// `process_block()` is the one implementation of each device. Its result
// does not depend on how a sample stream is split into calls — chunk
// size 1 and one call over the whole stream give the same bytes (enforced
// by tests/test_block_kernels.cpp) — so overrides hoist dt-dependent
// coefficients out of the sample loop and batch the noise draws freely.
// A control that varies during a run (the delay line's Vctrl, the
// mechanism behind the paper's jitter-injection mode) enters as a
// per-sample block input; see VariableGainBuffer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "signal/waveform.h"

namespace gdelay::analog {

/// Samples per chunk in the blocked waveform paths: big enough to
/// amortize coefficient derivation and virtual dispatch, small enough
/// that a handful of stage-major scratch buffers stay cache-resident.
inline constexpr std::size_t kBlockSamples = 1024;

class AnalogElement {
 public:
  virtual ~AnalogElement() = default;

  /// Clears all internal state (filter memories, delay lines, ...).
  virtual void reset() = 0;

  /// Deep copy carrying the complete internal state (filter memories,
  /// ring buffers, RNG streams). Clones drive the parallel calibration
  /// sweeps: each sweep point runs on its own clone, then fork_noise()
  /// decorrelates the copies deterministically. Every override must copy
  /// *all* state — a clone that diverges from its source under identical
  /// inputs breaks sweep determinism (rule R3 of gdelay-audit enforces
  /// that every element declares this).
  virtual std::unique_ptr<AnalogElement> clone() const = 0;

  /// Advances `n` sample periods of `dt_ps`, writing out[i] for in[i].
  /// Any partition of a stream into calls yields the same bytes.
  /// `in == out` (in-place) is allowed; other overlap is not. `dt_ps` may
  /// differ between calls (coefficient caches re-derive on change);
  /// within one call it is constant by signature.
  virtual void process_block(const double* in, double* out, std::size_t n,
                             double dt_ps) = 0;

  /// One sample: process_block() with n == 1. A convenience for tests
  /// and interactive probing; model code runs blocks.
  double step(double vin, double dt_ps) {
    double out;
    process_block(&vin, &out, 1, dt_ps);
    return out;
  }

  /// Runs a whole waveform through a freshly reset element (block path).
  sig::Waveform process(const sig::Waveform& in);

  /// Rvalue overload: transforms the argument's samples in place and
  /// returns the same storage — chained stages (`b.process(a.process(
  /// std::move(wf)))`) allocate nothing after the first waveform.
  sig::Waveform process(sig::Waveform&& in);
};

/// Resets `stage`, runs `in` through its process_block() in kBlockSamples
/// chunks and returns the output waveform — the shared loop behind every
/// whole-waveform process() implementation.
template <typename Stage>
sig::Waveform run_blocked(Stage& stage, const sig::Waveform& in) {
  stage.reset();
  sig::Waveform out(in.t0_ps(), in.dt_ps(), in.size());
  const double* src = in.samples().data();
  double* dst = out.samples().data();
  const std::size_t total = in.size();
  for (std::size_t o = 0; o < total; o += kBlockSamples)
    stage.process_block(src + o, dst + o, std::min(kBlockSamples, total - o),
                        in.dt_ps());
  return out;
}

/// Serial composition of elements (owned).
class Cascade final : public AnalogElement {
 public:
  Cascade() = default;

  /// Appends an element; returns a reference for further configuration.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto el = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *el;
    stages_.push_back(std::move(el));
    return ref;
  }

  void add(std::unique_ptr<AnalogElement> el);

  std::size_t size() const { return stages_.size(); }
  AnalogElement& stage(std::size_t i) { return *stages_.at(i); }

  void reset() override;
  /// Stage-major: the whole block runs through stage k before stage k+1
  /// touches it. Mathematically identical for this feedforward chain, and
  /// it turns N virtual calls per sample into N per block.
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) override;
  /// Deep copy: each stage is cloned in order (unique_ptr stages make the
  /// compiler-generated copy unavailable).
  std::unique_ptr<AnalogElement> clone() const override;

 private:
  std::vector<std::unique_ptr<AnalogElement>> stages_;
};

}  // namespace gdelay::analog
