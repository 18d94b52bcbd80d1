// Incremental measurement sinks: the consumer half of the fused executor.
//
// An ISampleSink receives a waveform as a sequence of chunks and folds
// each sample into its running measurement, so instruments that used to
// demand a materialized trace (eye diagram, jitter analyzer, histogram,
// edge extractor) can ride a streaming pipeline in a single pass. Every
// sink is required to produce byte-identical results to its whole-
// waveform counterpart at any chunking — state that spans chunk seams
// (the edge extractor's backscan window, the sample clock) is carried
// explicitly. A delay is two EdgeSinks built from one DelayMeterOptions
// (reference and output) and measure_delay_edges() of their edges:
// meas::delay_edges() feeds that sink a whole waveform, and
// core::lane_edges (core/batch.h) one per device of a lane group.
//
// Contract for implementations: all sizing happens in begin() (or the
// constructor); consume() must not allocate on the steady-state path
// (gdelay-audit rule R6 flags container growth there). Constructors
// reject a non-finite threshold, hysteresis, phase, settle window or UI
// with std::invalid_argument naming the field (a negative settle_ps is
// no settle window).
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
};

/// Materializes the stream into a Waveform — the bridge back to the
/// whole-waveform world (capture of a final trace, tests, debugging).
class WaveformCaptureSink final : public ISampleSink {
 public:
  void begin(double t0_ps, double dt_ps, std::size_t total_n) override;
  void consume(const double* samples, std::size_t n) override;

  const sig::Waveform& waveform() const { return wf_; }
  sig::Waveform take_waveform() { return std::move(wf_); }

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
  /// The crossings measure_delay() pairs: `opt`'s threshold and
  /// hysteresis, from t0 + settle_ps on.
  explicit EdgeSink(const DelayMeterOptions& opt);

  void begin(double t0_ps, double dt_ps, std::size_t total_n) override;
  void consume(const double* samples, std::size_t n) override;

  const std::vector<sig::Edge>& edges() const;
  /// Crossing instants only (the TIE extractor's raw material).
  std::vector<double> edge_times() const;

 private:
  sig::EdgeExtractOptions opt_;
  double settle_ps_;
  std::optional<sig::StreamingEdgeExtractor> extractor_;
};

/// Single-pass jitter measurement; finish() produces the same JitterReport
/// as measure_jitter() on the materialized trace. The constructor throws
/// std::invalid_argument unless `ui_ps` is finite and > 0.
class JitterSink final : public ISampleSink {
 public:
  JitterSink(double ui_ps, const JitterMeasureOptions& opt = {});

  void begin(double t0_ps, double dt_ps, std::size_t total_n) override;
  void consume(const double* samples, std::size_t n) override;
  void finish() override;

  const JitterReport& report() const { return report_; }
  const std::vector<sig::Edge>& edges() const { return edge_sink_.edges(); }

 private:
  double ui_ps_;
  EdgeSink edge_sink_;
  JitterReport report_;
};

}  // namespace gdelay::meas
