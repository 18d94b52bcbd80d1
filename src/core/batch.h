// Lane-batched multi-stream executor.
//
// The serial-by-contract recursions (slew limiting, the VGA droop tail)
// cap what SIMD can do for a single stream: a loop-carried nonlinear
// dependence cannot vectorize along time. But the repo's dominant
// workloads — Monte-Carlo matching trials, calibration Vctrl sweeps,
// board channels — are embarrassingly parallel across STREAMS.
// BatchRunner is a thin interleaver that exploits that: it takes N
// independent cloned element chains (decorrelated via fork_noise(),
// programmed with per-stream taps and Vctrl), transposes each chunk of
// the shared stimulus into an interleaved time-major layout
// buf[i*w + s], runs it through the chains' own lane pass
// (VariableDelayChannel::process_lanes / FineDelayLine::process_lanes —
// the very code their solo process_block() runs at w == 1), and
// de-interleaves the result into waveforms or sinks.
//
// Determinism contract (enforced by tests/test_block_kernels.cpp):
// every stream's output is bit-identical to its solo run
// (stream.process(stimulus)) on the same backend, for ANY batch width
// and ANY stream-to-lane assignment. Each stream draws from its own RNG
// in the solo order, so fork_noise() decorrelation is preserved exactly.
#pragma once

#include <cstddef>
#include <vector>

#include "core/channel.h"
#include "measure/sinks.h"
#include "signal/waveform.h"

namespace gdelay::core {

class BatchRunner {
 public:
  BatchRunner() = default;

  /// Adds a stream (borrowed; must outlive the runner). All streams in
  /// one runner must be the same kind — whole channels or bare fine
  /// lines — with the same stage count; per-stream tap selection, Vctrl
  /// and RNG streams may differ freely. Throws std::logic_error for a
  /// mix of kinds, a stage-count mismatch, or a stream already added
  /// (two lanes would advance one device's state).
  void add(VariableDelayChannel& ch);
  void add(FineDelayLine& line);

  std::size_t width() const {
    return channels_.empty() ? fines_.size() : channels_.size();
  }

  /// Resets every stream, then runs the shared stimulus through all of
  /// them in lockstep chunks. outs[s] is bit-identical to
  /// streams[s].process(stimulus) on the active backend.
  std::vector<sig::Waveform> run(const sig::Waveform& stimulus);

  /// Reuse variant: `outs` is resized/regridded as needed, so repeated
  /// runs allocate nothing after the first.
  void run(const sig::Waveform& stimulus, std::vector<sig::Waveform>& outs);

  /// Streaming variant: feeds each stream's output column into its sink
  /// (begin/consume/finish), chunked exactly like the solo Pipeline
  /// path, so incremental measurements match their solo-run results.
  void run(const sig::Waveform& stimulus,
           const std::vector<meas::ISampleSink*>& sinks);

 private:
  /// Resets the streams, then hands each processed interleaved chunk to
  /// `emit(chunk, offset, n)`.
  template <typename Emit>
  void run_chunks(const sig::Waveform& stimulus, Emit emit);

  std::vector<VariableDelayChannel*> channels_;
  std::vector<FineDelayLine*> fines_;

  // Interleaved chunk and one de-interleaved column, reused across runs.
  std::vector<double> ilv_, col_;
};

}  // namespace gdelay::core
