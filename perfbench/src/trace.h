// Benchmark-side tracing: spans around calls into gdelay's public API.
//
// A span records its layer, start, end, parent span and op id. Spans nest
// per thread (a thread-local stack of open spans); closing one adds its
// duration to the layer's busy time and to its parent's child time, so a
// layer's self time is its span minus the part its children cover.
// Totals are exact for every span; the records themselves are kept in
// memory up to a cap and written out once, at exit.
//
// Nothing here is compiled into the library: the decorators wrap the
// benchmark's own stages, sources and sinks, and a disabled tracer makes
// every span a no-op.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "measure/sinks.h"
#include "signal/stream.h"

namespace perfbench {

/// The layers the benchmark can split time across, named after the
/// library's modules.
enum class Layer : int {
  kOp,              ///< One benchmark op, the root of its spans.
  kSignalStream,    ///< signal: SampleSource::read.
  kJitterInjector,  ///< core: JitterInjector.
  kCoarseDelay,     ///< core: CoarseDelayBlock.
  kFineDelay,       ///< core: FineDelayLine.
  kPipeline,        ///< core: Pipeline::run.
  kCalibration,     ///< core: DelayCalibrator::calibrate.
  kDeskewPlan,      ///< core: DeskewEngine::plan.
  kMeasureJitter,   ///< measure: JitterSink.
  kMeasureEye,      ///< measure: EyeSink.
  kMeasureHistogram,  ///< measure: LevelHistogramSink.
  kAteCdr,          ///< ate: CdrReceiver::recover + alignment scoring.
  kAteController,   ///< ate: DeskewController::measure_arrivals.
  kCampaignRun,     ///< campaign: a plain run_campaign call.
  kCampaignStop,    ///< campaign: a checkpointed call cut by stop_after.
  kCampaignResume,  ///< campaign: the call resuming from checkpoints.
  kCampaignUnit,    ///< campaign: one unit callback (aggregate only).
  kCount
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Dotted metric prefix of a layer, e.g. "core.jitter_injector".
const char* layer_name(Layer layer);

struct Span {
  Layer layer = Layer::kOp;
  std::int32_t parent = -1;  ///< Index of the parent in the same thread's records.
  std::uint32_t thread = 0;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct LayerTotals {
  std::int64_t busy_ns = 0;   ///< Sum of span durations.
  std::int64_t self_ns = 0;   ///< Sum of durations minus child spans.
  std::uint64_t spans = 0;
  std::uint64_t samples = 0;  ///< Samples the spans reported processing.
};

using Totals = std::array<LayerTotals, kLayerCount>;

/// Steady-clock nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// The process-wide tracer, disabled until enable(true).
  static Tracer& instance();

  /// Switched between passes, never while an op runs.
  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Upper bound on span records kept for write_spans(); totals keep
  /// counting past it.
  void set_record_limit(std::size_t n) { record_limit_ = n; }

  /// Op id stamped on spans the calling thread opens from now on.
  void set_op(std::uint64_t op);

  void open(Layer layer, std::int64_t t_ns);
  void close(std::int64_t t_ns, std::uint64_t samples = 0);
  /// Adds busy time that belongs to no span tree (work on pool threads
  /// whose submitter holds the open span); it counts as its own self time.
  void add_detached(Layer layer, std::int64_t ns, std::uint64_t samples = 0);

  /// Totals over every thread. Call only while no span is being closed.
  Totals totals() const;
  std::size_t recorded() const;
  std::size_t dropped() const;

  /// Writes the kept records as CSV (thread,index,parent,op,layer,start_ns,
  /// end_ns); `parent` indexes the same thread's records, so a reader can
  /// recompute self times. Returns false when the file cannot be written.
  bool write_spans(const std::string& path) const;

  /// Forgets every total and record (tests).
  void reset();
  /// The calling thread's kept records (tests).
  std::vector<Span> thread_records();

 private:
  struct Open {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t record;  ///< Index into records, or -1 if not kept.
  };
  struct ThreadState {
    std::uint32_t id = 0;
    std::uint64_t op = 0;
    std::vector<Open> stack;
    std::vector<Span> records;
    std::size_t dropped = 0;
    Totals totals{};
  };

  ThreadState& local();

  std::atomic<bool> enabled_{false};
  std::size_t record_limit_ = 200000;
  mutable std::mutex mu_;  ///< Guards threads_.
  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::atomic<std::size_t> records_kept_{0};
  /// Bumped by reset() so threads re-register their state.
  std::atomic<std::uint64_t> generation_{0};
};

/// RAII span on the process tracer; free when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, std::uint64_t samples = 0)
      : on_(Tracer::instance().enabled()), samples_(samples) {
    if (on_) Tracer::instance().open(layer, now_ns());
  }
  ~ScopedSpan() {
    if (on_) Tracer::instance().close(now_ns(), samples_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Samples credited to the span's layer when it closes.
  void set_samples(std::uint64_t n) { samples_ = n; }

 private:
  bool on_;
  std::uint64_t samples_;
};

/// Times a borrowed Pipeline stage: any type with `reset()` and
/// `process_block(in, out, n, dt)`. Each block is one span.
template <typename T>
class TimedStage {
 public:
  TimedStage(T& stage, Layer layer) : stage_(&stage), layer_(layer) {}

  void reset() { stage_->reset(); }
  void process_block(const double* in, double* out, std::size_t n,
                     double dt_ps) {
    ScopedSpan span(layer_, n);
    stage_->process_block(in, out, n, dt_ps);
  }

 private:
  T* stage_;
  Layer layer_;
};

/// Times every read() of a borrowed source as signal.stream.
class TimedSource final : public gdelay::sig::SampleSource {
 public:
  explicit TimedSource(gdelay::sig::SampleSource& src) : src_(&src) {}

  double t0_ps() const override { return src_->t0_ps(); }
  double dt_ps() const override { return src_->dt_ps(); }
  std::size_t size() const override { return src_->size(); }
  void rewind() override { src_->rewind(); }
  std::size_t read(double* dst, std::size_t max_n) override;

 private:
  gdelay::sig::SampleSource* src_;
};

/// Times begin/consume/finish of a borrowed sink under `layer`.
class TimedSink final : public gdelay::meas::ISampleSink {
 public:
  TimedSink(gdelay::meas::ISampleSink& sink, Layer layer)
      : sink_(&sink), layer_(layer) {}

  void begin(double t0_ps, double dt_ps, std::size_t total_n) override;
  void consume(const double* samples, std::size_t n) override;
  void finish() override;

 private:
  gdelay::meas::ISampleSink* sink_;
  Layer layer_;
};

}  // namespace perfbench
