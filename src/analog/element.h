// What every device of the delay line shares.
//
// A device is a plain copyable value type: `reset()`, and
// `process_block(in, out, n, dt)`, which advances its state by `n`
// sample periods and writes one output per input (in == out allowed;
// dt may change between calls). A copy carries the complete state
// (filter memories, rings, RNG streams), so a copy is the clone: the
// calibration sweeps copy one device per sweep point and fork_noise()
// decorrelates the copies. `process(wf)` runs a whole waveform through
// run_blocked() below.
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
// per-sample block input; see core::FineDelayLine.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "signal/waveform.h"
#include "util/scratch.h"

namespace gdelay::analog {

/// Samples per chunk in the blocked waveform paths: big enough to
/// amortize each call's coefficient derivation and lane setup, small
/// enough that a handful of stage-major scratch buffers stay
/// cache-resident.
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

}  // namespace gdelay::analog
