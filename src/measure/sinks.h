// Incremental measurement sinks: the consumer half of the fused executor.
//
// An ISampleSink receives a waveform as a sequence of chunks and folds
// each sample into its running measurement, so instruments that used to
// demand a materialized trace (eye diagram, jitter analyzer, histogram,
// delay meter) can ride a streaming pipeline in a single pass. Every sink
// is required to produce byte-identical results to its whole-waveform
// counterpart at any chunking — state that spans chunk seams (the edge
// extractor's backscan window, the sample clock) is carried explicitly.
//
// Contract for implementations: all sizing happens in begin() (or the
// constructor); consume() must not allocate on the steady-state path
// (gdelay-audit rule R6 flags container growth there).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "measure/delay_meter.h"
#include "measure/eye.h"
#include "measure/histogram.h"
#include "measure/jitter.h"
#include "signal/edges.h"
#include "signal/waveform.h"

namespace gdelay::util {
class ByteWriter;
class ByteReader;
}  // namespace gdelay::util

namespace gdelay::meas {

/// Chunk-by-chunk consumer of a uniformly sampled stream.
class ISampleSink {
 public:
  virtual ~ISampleSink() = default;

  /// Announces the stream's grid before the first chunk. `total_n` is the
  /// total sample count the stream will deliver (sinks size buffers here).
  /// Calling begin() again restarts the sink for a fresh stream.
  virtual void begin(double t0_ps, double dt_ps, std::size_t total_n) = 0;

  /// Consumes the next `n` samples of the stream, in order.
  virtual void consume(const double* samples, std::size_t n) = 0;

  /// Called once after the last chunk; finalizes derived results.
  virtual void finish() {}

  // -- Checkpoint / merge surface (campaign orchestration) --------------
  //
  // A checkpointable sink can externalize its full accumulation state as
  // bytes and restore it later: save_state() on sink A followed by
  // load_state() on a same-configured sink B makes B indistinguishable
  // from A — resuming the stream on B yields byte-identical results to
  // the uninterrupted run on A. Payloads start with a per-class kind tag
  // so a checkpoint can never deserialize into the wrong sink type, and
  // every read is bounds-checked (truncation throws, never fabricates).
  //
  // merge_from() folds another sink's accumulated statistics into this
  // one (counts add, edge lists concatenate). It is defined for the
  // accumulator sinks; order-sensitive sinks (waveform capture) keep the
  // default throwing implementation.

  /// True if this sink supports save_state()/load_state().
  virtual bool checkpointable() const { return false; }
  /// Serializes the sink's full state. Throws std::logic_error if the
  /// sink is not checkpointable.
  virtual void save_state(util::ByteWriter& w) const;
  /// Restores state saved by a same-configured sink. Throws
  /// std::runtime_error on a kind-tag mismatch or corrupt payload
  /// (including a non-finite or non-positive sample period or UI).
  virtual void load_state(util::ByteReader& r);
  /// Folds `other`'s accumulated statistics into this sink. Both sinks
  /// must be the same type with matching configuration. Throws
  /// std::logic_error where merging is not meaningful.
  virtual void merge_from(const ISampleSink& other);
};

/// Materializes the stream into a Waveform — the bridge back to the
/// whole-waveform world (capture of a final trace, tests, debugging).
class WaveformCaptureSink final : public ISampleSink {
 public:
  void begin(double t0_ps, double dt_ps, std::size_t total_n) override;
  void consume(const double* samples, std::size_t n) override;

  const sig::Waveform& waveform() const { return wf_; }
  sig::Waveform take_waveform() { return std::move(wf_); }

  /// Capture supports checkpoint/resume but not merge: a waveform is a
  /// positional recording, not an additive statistic.
  bool checkpointable() const override { return true; }
  void save_state(util::ByteWriter& w) const override;
  void load_state(util::ByteReader& r) override;

 private:
  sig::Waveform wf_;
  std::size_t pos_ = 0;
};

/// Folds samples into an EyeDiagram exactly as EyeDiagram::accumulate
/// does for a materialized trace (same phase rotation, same settle gate).
class EyeSink final : public ISampleSink {
 public:
  EyeSink(EyeDiagram eye, double phase_ps = 0.0, double settle_ps = 400.0);

  void begin(double t0_ps, double dt_ps, std::size_t total_n) override;
  void consume(const double* samples, std::size_t n) override;

  const EyeDiagram& eye() const { return eye_; }
  EyeDiagram& eye() { return eye_; }

  bool checkpointable() const override { return true; }
  void save_state(util::ByteWriter& w) const override;
  void load_state(util::ByteReader& r) override;
  void merge_from(const ISampleSink& other) override;

 private:
  EyeDiagram eye_;
  double phase_ps_;
  double settle_ps_;
  double t0_ps_ = 0.0;
  double dt_ps_ = 1.0;
  std::size_t next_ = 0;  ///< Global index of the next sample.
};

/// Level (voltage) histogram of the settled portion of the stream.
class LevelHistogramSink final : public ISampleSink {
 public:
  LevelHistogramSink(double lo, double hi, std::size_t n_bins,
                     double settle_ps = 400.0);

  void begin(double t0_ps, double dt_ps, std::size_t total_n) override;
  void consume(const double* samples, std::size_t n) override;

  const Histogram& histogram() const { return hist_; }

  bool checkpointable() const override { return true; }
  void save_state(util::ByteWriter& w) const override;
  void load_state(util::ByteReader& r) override;
  void merge_from(const ISampleSink& other) override;

 private:
  Histogram hist_;
  double settle_ps_;
  double t0_ps_ = 0.0;
  double dt_ps_ = 1.0;
  std::size_t next_ = 0;
};

/// Streaming threshold-crossing extraction. The extract window opens at
/// t0 + settle_ps, matching the measure_* helpers' handling of lead-in
/// transients; edge times and polarities equal extract_edges() on the
/// materialized trace.
class EdgeSink final : public ISampleSink {
 public:
  explicit EdgeSink(const sig::EdgeExtractOptions& opt = {},
                    double settle_ps = 400.0);

  void begin(double t0_ps, double dt_ps, std::size_t total_n) override;
  void consume(const double* samples, std::size_t n) override;

  const std::vector<sig::Edge>& edges() const;
  /// Crossing instants only (the TIE extractor's raw material).
  std::vector<double> edge_times() const;

  bool checkpointable() const override { return true; }
  void save_state(util::ByteWriter& w) const override;
  void load_state(util::ByteReader& r) override;
  /// Concatenates the other sink's emitted edges (shards cover disjoint
  /// stretches of stimulus, so edge lists append in shard order).
  void merge_from(const ISampleSink& other) override;

 private:
  sig::EdgeExtractOptions opt_;
  double settle_ps_;
  std::optional<sig::StreamingEdgeExtractor> extractor_;
  std::size_t total_n_ = 0;
};

/// Single-pass jitter measurement; finish() produces the same JitterReport
/// as measure_jitter() on the materialized trace.
class JitterSink final : public ISampleSink {
 public:
  JitterSink(double ui_ps, const JitterMeasureOptions& opt = {});

  void begin(double t0_ps, double dt_ps, std::size_t total_n) override;
  void consume(const double* samples, std::size_t n) override;
  void finish() override;

  const JitterReport& report() const { return report_; }
  const std::vector<sig::Edge>& edges() const { return edge_sink_.edges(); }

  bool checkpointable() const override { return true; }
  void save_state(util::ByteWriter& w) const override;
  void load_state(util::ByteReader& r) override;
  /// Merges the underlying edge lists and recomputes the report.
  void merge_from(const ISampleSink& other) override;

 private:
  double ui_ps_;
  EdgeSink edge_sink_;
  JitterReport report_;
};

/// Single-pass delay measurement of the OUTPUT trace against a reference
/// whose edges were collected by another EdgeSink (the reference stream
/// must be finished before finish() is called here). finish() produces
/// the same DelayMeasurement as measure_delay(reference, output).
class DelayMeterSink final : public ISampleSink {
 public:
  DelayMeterSink(const EdgeSink& reference, const DelayMeterOptions& opt = {});

  void begin(double t0_ps, double dt_ps, std::size_t total_n) override;
  void consume(const double* samples, std::size_t n) override;
  void finish() override;

  const DelayMeasurement& result() const { return result_; }

  /// An EdgeSink configured exactly as measure_delay configures its
  /// reference-side extraction for these options.
  static EdgeSink reference_sink(const DelayMeterOptions& opt = {});

  /// Checkpoints the OUTPUT-side edge state only; the reference pointer is
  /// reconstructed by the caller (pass the live reference sink to the
  /// constructor before load_state). finish() recomputes the result.
  bool checkpointable() const override { return true; }
  void save_state(util::ByteWriter& w) const override;
  void load_state(util::ByteReader& r) override;
  /// Merges the output-side edge lists and recomputes against the live
  /// reference (whose edges the caller merges separately).
  void merge_from(const ISampleSink& other) override;

 private:
  const EdgeSink* reference_;
  DelayMeterOptions opt_;
  EdgeSink edge_sink_;
  DelayMeasurement result_;
};

}  // namespace gdelay::meas
