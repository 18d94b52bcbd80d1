// Base interface for behavioral analog elements.
//
// Every element is a causal, stateful sample process: `process_block(in,
// out, n, dt)` advances internal state by `n` sample periods and writes
// one output per input. Elements compose by nesting calls (or `Cascade`),
// and `process()` runs a whole waveform through in kBlockSamples chunks.
//
// Each device of the delay line is written once, as a static lane pass
// `T::process_lanes(lanes, w, in, out, n, dt)` advancing `w` devices over
// buffers interleaved time-major (buf[i*w + s]); its process_block() is
// the w == 1 call. The bytes of a stream depend neither on how it is
// split into calls nor on the width or its lane (enforced by
// tests/test_block_kernels.cpp), so passes hoist dt-dependent
// coefficients out of the sample loop and batch the noise draws freely.
// A control that varies during a run (the delay line's Vctrl, the
// mechanism behind the paper's jitter-injection mode) enters as a
// per-sample block input; see VariableGainBuffer.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "signal/waveform.h"
#include "util/scratch.h"

namespace gdelay::analog {

/// Samples per chunk in the blocked waveform paths: big enough to
/// amortize coefficient derivation and virtual dispatch, small enough
/// that a handful of stage-major scratch buffers stay cache-resident.
inline constexpr std::size_t kBlockSamples = 1024;

/// Per-stream values of one lane pass: coefficients, state and part
/// pointers. Entry s is `make(s)`. Inline storage covers every width the
/// library runs, so a pass allocates nothing; wider runs spill to the
/// heap.
template <typename T>
class LaneArray {
 public:
  template <typename Make>
  LaneArray(std::size_t w, Make make) : w_(w) {
    if (w > kInline) heap_.resize(w);
    T* p = data();
    for (std::size_t s = 0; s < w; ++s) p[s] = make(s);
  }
  T* data() { return w_ > kInline ? heap_.data() : inline_.data(); }

 private:
  static constexpr std::size_t kInline = 16;
  std::size_t w_;
  std::array<T, kInline> inline_;
  std::vector<T> heap_;
};

/// The part `m` of each of `w` devices: what a composite's pass hands to
/// its part's pass.
template <typename Device, typename Part>
LaneArray<Part*> parts(Device* const* lanes, std::size_t w, Part Device::*m) {
  return LaneArray<Part*>(w, [&](std::size_t s) { return &(lanes[s]->*m); });
}

/// A device's solo block: its lane pass at w == 1.
template <typename Device, typename... Args>
void solo_block(Device* self, Args... args) {
  Device::process_lanes(&self, 1, args...);
}

/// Runs `solo(s, col_in, col_out)` for each stream on a de-interleaved
/// copy of its column — the fallback for state with no lane form (a
/// fractional-delay ring, a mixed on/off set of noise sources). `in` may
/// be null (no input). At w == 1 the buffers are the column: no copies.
template <typename Solo>
void per_stream(const double* in, double* out, std::size_t n, std::size_t w,
                Solo solo) {
  if (w == 1) return solo(std::size_t{0}, in, out);
  util::ScratchBuffer col(n);
  for (std::size_t s = 0; s < w; ++s) {
    if (in != nullptr)
      for (std::size_t i = 0; i < n; ++i) col[i] = in[i * w + s];
    solo(s, col.data(), col.data());
    for (std::size_t i = 0; i < n; ++i) out[i * w + s] = col[i];
  }
}

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
