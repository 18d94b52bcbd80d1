// Streaming fused-pipeline executor.
//
// Chains a SampleSource, a sequence of processing stages and a set of
// measurement sinks into a single pass over cache-sized chunks: each
// chunk is rendered, pushed through every stage in place, and folded
// into every sink before the next chunk is touched. Peak memory is
// O(chunk), not O(stages x waveform), and the hot samples stay L1/L2
// resident — the software analogue of clocking samples through a
// hardware delay line without staging buffers.
//
// Identity guarantee: because every stage's process_block() gives the
// same bytes at any chunking (the block-kernel partition-invariance
// contract), and every sink carries its seam state explicitly, a
// Pipeline run produces bit-for-bit the same
// doubles as materializing each intermediate waveform — at ANY
// chunk_samples. Stages draw from their own RNG streams in sample
// order, so the draw order also matches the materializing path.
//
// Stages are borrowed, not owned: benches and calibration code keep
// configuring the very objects (channel, injector) they stream through.
// All referenced stages, the source and the sinks must outlive run().
//
// Batch-of-pipelines counterpart: when the SAME stimulus must be run
// through N independent channels or fine lines (Monte-Carlo trials,
// sweep points, board channels), core::run_lanes (core/batch.h) stands in
// for N Pipeline runs — it chunks identically (kBlockSamples), runs the
// devices through their composites' own lane pass, and feeds one
// ISampleSink per device, with each device's samples bit-identical to
// its solo Pipeline run; core::lane_edges measures a whole device list
// that way, four devices to a lane group.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <vector>

#include "analog/element.h"
#include "measure/sinks.h"
#include "signal/stream.h"

namespace gdelay::core {

class Pipeline {
 public:
  /// `chunk_samples` is the span processed per pass; the default matches
  /// the block kernels' cache-sized unit. Results are chunk-invariant —
  /// the knob trades loop overhead against cache footprint only.
  explicit Pipeline(std::size_t chunk_samples = analog::kBlockSamples);

  /// Appends a borrowed processing stage. Any device — a type with
  /// `reset()` and `process_block(const double*, double*, std::size_t,
  /// double)` — qualifies: an analog element, VariableDelayChannel,
  /// JitterInjector, FineDelayLine...
  template <typename T>
  Pipeline& add_stage(T& stage) {
    stages_.push_back(std::make_unique<StageModel<T>>(stage));
    return *this;
  }

  /// Pulls the entire source through the stage chain, feeding every
  /// processed chunk to each sink in order. Rewinds the source and
  /// resets every stage first (mirroring the whole-waveform process()
  /// contract: fresh signal state, continuing noise streams), brackets
  /// the sinks with begin()/finish(). May be called repeatedly.
  void run(sig::SampleSource& source,
           std::initializer_list<meas::ISampleSink*> sinks);
  void run(sig::SampleSource& source, meas::ISampleSink& sink);

 private:
  // gdelay-audit: allow(R12) type-erasure interface over borrowed
  // devices, not a device; each device it erases is covered itself.
  struct IStage {
    virtual ~IStage() = default;
    virtual void reset() = 0;
    virtual void process_block(const double* in, double* out, std::size_t n,
                               double dt_ps) = 0;
  };

  template <typename T>
  // gdelay-audit: allow(R12) type-erasure adapter over a borrowed device,
  // not a device; each device it wraps is covered itself.
  struct StageModel final : IStage {
    explicit StageModel(T& s) : stage(&s) {}
    void reset() override { stage->reset(); }
    void process_block(const double* in, double* out, std::size_t n,
                       double dt_ps) override {
      stage->process_block(in, out, n, dt_ps);
    }
    T* stage;
  };

  std::size_t chunk_;
  std::vector<std::unique_ptr<IStage>> stages_;
};

}  // namespace gdelay::core
