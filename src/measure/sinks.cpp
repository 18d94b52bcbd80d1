#include "measure/sinks.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/serde.h"

namespace gdelay::meas {

namespace {

// Per-class kind tags: the first u32 of every sink checkpoint payload.
// A checkpoint can then never load into the wrong sink type.
enum SinkKind : std::uint32_t {
  kKindWaveformCapture = 1,
  kKindEye = 2,
  kKindLevelHistogram = 3,
  kKindEdge = 4,
  kKindJitter = 5,
  kKindDelayMeter = 6,
};

void expect_kind(util::ByteReader& r, std::uint32_t want, const char* who) {
  const std::uint32_t got = r.u32();
  if (got != want)
    throw std::runtime_error(std::string(who) +
                             ": checkpoint kind-tag mismatch");
}

/// Reads a sample period or unit interval: anything but a finite,
/// positive value means the payload is corrupt.
double read_period(util::ByteReader& r, const char* who) {
  const double v = r.f64();
  if (!std::isfinite(v) || v <= 0.0)
    throw std::runtime_error(std::string(who) + ": corrupt checkpoint");
  return v;
}

}  // namespace

void ISampleSink::save_state(util::ByteWriter&) const {
  throw std::logic_error("ISampleSink: sink is not checkpointable");
}

void ISampleSink::load_state(util::ByteReader&) {
  throw std::logic_error("ISampleSink: sink is not checkpointable");
}

void ISampleSink::merge_from(const ISampleSink&) {
  throw std::logic_error("ISampleSink: sink does not support merge");
}

void WaveformCaptureSink::begin(double t0_ps, double dt_ps,
                                std::size_t total_n) {
  wf_ = sig::Waveform(t0_ps, dt_ps, total_n);
  pos_ = 0;
}

void WaveformCaptureSink::consume(const double* samples, std::size_t n) {
  std::memcpy(wf_.samples().data() + pos_, samples, n * sizeof(double));
  pos_ += n;
}

void WaveformCaptureSink::save_state(util::ByteWriter& w) const {
  w.u32(kKindWaveformCapture);
  w.f64(wf_.t0_ps());
  w.f64(wf_.dt_ps());
  w.vec_f64(wf_.samples());
  w.u64(pos_);
}

void WaveformCaptureSink::load_state(util::ByteReader& r) {
  expect_kind(r, kKindWaveformCapture, "WaveformCaptureSink");
  const double t0 = r.f64();
  const double dt = read_period(r, "WaveformCaptureSink");
  std::vector<double> samples = r.vec_f64();
  const auto pos = static_cast<std::size_t>(r.u64());
  if (pos > samples.size())
    throw std::runtime_error("WaveformCaptureSink: corrupt checkpoint");
  wf_ = sig::Waveform(t0, dt, std::move(samples));
  pos_ = pos;
}

EyeSink::EyeSink(EyeDiagram eye, double phase_ps, double settle_ps)
    : eye_(std::move(eye)), phase_ps_(phase_ps), settle_ps_(settle_ps) {}

void EyeSink::begin(double t0_ps, double dt_ps, std::size_t) {
  t0_ps_ = t0_ps;
  dt_ps_ = dt_ps;
  next_ = 0;
}

void EyeSink::consume(const double* samples, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k, ++next_) {
    const double t = t0_ps_ + dt_ps_ * static_cast<double>(next_);
    if (t < t0_ps_ + settle_ps_) continue;
    eye_.add(t, phase_ps_, samples[k]);
  }
}

void EyeSink::save_state(util::ByteWriter& w) const {
  w.u32(kKindEye);
  w.f64(phase_ps_);
  w.f64(settle_ps_);
  w.f64(t0_ps_);
  w.f64(dt_ps_);
  w.u64(next_);
  eye_.save(w);
}

void EyeSink::load_state(util::ByteReader& r) {
  expect_kind(r, kKindEye, "EyeSink");
  phase_ps_ = r.f64();
  settle_ps_ = r.f64();
  t0_ps_ = r.f64();
  dt_ps_ = read_period(r, "EyeSink");
  next_ = static_cast<std::size_t>(r.u64());
  eye_.load(r);
}

void EyeSink::merge_from(const ISampleSink& other) {
  const auto* o = dynamic_cast<const EyeSink*>(&other);
  if (!o) throw std::logic_error("EyeSink: merge type mismatch");
  if (phase_ps_ != o->phase_ps_ || settle_ps_ != o->settle_ps_)
    throw std::runtime_error("EyeSink: merge configuration mismatch");
  eye_.merge(o->eye_);
}

LevelHistogramSink::LevelHistogramSink(double lo, double hi,
                                       std::size_t n_bins, double settle_ps)
    : hist_(lo, hi, n_bins), settle_ps_(settle_ps) {}

void LevelHistogramSink::begin(double t0_ps, double dt_ps, std::size_t) {
  t0_ps_ = t0_ps;
  dt_ps_ = dt_ps;
  next_ = 0;
}

void LevelHistogramSink::consume(const double* samples, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k, ++next_) {
    const double t = t0_ps_ + dt_ps_ * static_cast<double>(next_);
    if (t < t0_ps_ + settle_ps_) continue;
    hist_.add(samples[k]);
  }
}

void LevelHistogramSink::save_state(util::ByteWriter& w) const {
  w.u32(kKindLevelHistogram);
  w.f64(settle_ps_);
  w.f64(t0_ps_);
  w.f64(dt_ps_);
  w.u64(next_);
  hist_.save(w);
}

void LevelHistogramSink::load_state(util::ByteReader& r) {
  expect_kind(r, kKindLevelHistogram, "LevelHistogramSink");
  settle_ps_ = r.f64();
  t0_ps_ = r.f64();
  dt_ps_ = read_period(r, "LevelHistogramSink");
  next_ = static_cast<std::size_t>(r.u64());
  hist_.load(r);
}

void LevelHistogramSink::merge_from(const ISampleSink& other) {
  const auto* o = dynamic_cast<const LevelHistogramSink*>(&other);
  if (!o) throw std::logic_error("LevelHistogramSink: merge type mismatch");
  if (settle_ps_ != o->settle_ps_)
    throw std::runtime_error("LevelHistogramSink: merge configuration mismatch");
  hist_.merge(o->hist_);
}

EdgeSink::EdgeSink(const sig::EdgeExtractOptions& opt, double settle_ps)
    : opt_(opt), settle_ps_(settle_ps) {}

void EdgeSink::begin(double t0_ps, double dt_ps, std::size_t total_n) {
  sig::EdgeExtractOptions eo = opt_;
  eo.t_min_ps = t0_ps + settle_ps_;
  extractor_.emplace(t0_ps, dt_ps, eo);
  total_n_ = total_n;
}

void EdgeSink::consume(const double* samples, std::size_t n) {
  extractor_->consume(samples, n);
}

const std::vector<sig::Edge>& EdgeSink::edges() const {
  static const std::vector<sig::Edge> kEmpty;
  return extractor_ ? extractor_->edges() : kEmpty;
}

std::vector<double> EdgeSink::edge_times() const {
  return sig::edge_times(edges());
}

void EdgeSink::save_state(util::ByteWriter& w) const {
  w.u32(kKindEdge);
  w.f64(opt_.threshold_v);
  w.f64(opt_.hysteresis_v);
  w.f64(opt_.t_min_ps);
  w.f64(opt_.t_max_ps);
  w.f64(settle_ps_);
  w.u64(total_n_);
  w.u8(extractor_ ? 1 : 0);
  if (extractor_) extractor_->save(w);
}

void EdgeSink::load_state(util::ByteReader& r) {
  expect_kind(r, kKindEdge, "EdgeSink");
  opt_.threshold_v = r.f64();
  opt_.hysteresis_v = r.f64();
  opt_.t_min_ps = r.f64();
  opt_.t_max_ps = r.f64();
  settle_ps_ = r.f64();
  total_n_ = static_cast<std::size_t>(r.u64());
  if (r.u8() != 0) {
    extractor_.emplace(0.0, 1.0, sig::EdgeExtractOptions{});
    extractor_->load(r);
  } else {
    extractor_.reset();
  }
}

void EdgeSink::merge_from(const ISampleSink& other) {
  const auto* o = dynamic_cast<const EdgeSink*>(&other);
  if (!o) throw std::logic_error("EdgeSink: merge type mismatch");
  if (!extractor_ || !o->extractor_)
    throw std::logic_error("EdgeSink: merge before begin()");
  extractor_->append_edges(o->extractor_->edges());
}

namespace {

sig::EdgeExtractOptions jitter_extract_options(
    const JitterMeasureOptions& opt) {
  sig::EdgeExtractOptions eo;
  eo.threshold_v = opt.threshold_v;
  eo.hysteresis_v = opt.hysteresis_v;
  return eo;
}

sig::EdgeExtractOptions delay_extract_options(const DelayMeterOptions& opt) {
  sig::EdgeExtractOptions eo;
  eo.threshold_v = opt.threshold_v;
  eo.hysteresis_v = opt.hysteresis_v;
  return eo;
}

}  // namespace

JitterSink::JitterSink(double ui_ps, const JitterMeasureOptions& opt)
    : ui_ps_(ui_ps), edge_sink_(jitter_extract_options(opt), opt.settle_ps) {}

void JitterSink::begin(double t0_ps, double dt_ps, std::size_t total_n) {
  edge_sink_.begin(t0_ps, dt_ps, total_n);
  report_ = JitterReport{};
}

void JitterSink::consume(const double* samples, std::size_t n) {
  edge_sink_.consume(samples, n);
}

void JitterSink::finish() {
  report_ = analyze_jitter(edge_sink_.edge_times(), ui_ps_);
}

void JitterSink::save_state(util::ByteWriter& w) const {
  w.u32(kKindJitter);
  w.f64(ui_ps_);
  edge_sink_.save_state(w);
}

void JitterSink::load_state(util::ByteReader& r) {
  expect_kind(r, kKindJitter, "JitterSink");
  ui_ps_ = read_period(r, "JitterSink");
  edge_sink_.load_state(r);
  report_ = JitterReport{};
}

void JitterSink::merge_from(const ISampleSink& other) {
  const auto* o = dynamic_cast<const JitterSink*>(&other);
  if (!o) throw std::logic_error("JitterSink: merge type mismatch");
  if (ui_ps_ != o->ui_ps_)
    throw std::runtime_error("JitterSink: merge configuration mismatch");
  edge_sink_.merge_from(o->edge_sink_);
  finish();
}

DelayMeterSink::DelayMeterSink(const EdgeSink& reference,
                               const DelayMeterOptions& opt)
    : reference_(&reference),
      opt_(opt),
      edge_sink_(delay_extract_options(opt), opt.settle_ps) {}

EdgeSink DelayMeterSink::reference_sink(const DelayMeterOptions& opt) {
  return EdgeSink(delay_extract_options(opt), opt.settle_ps);
}

void DelayMeterSink::begin(double t0_ps, double dt_ps, std::size_t total_n) {
  edge_sink_.begin(t0_ps, dt_ps, total_n);
  result_ = DelayMeasurement{};
}

void DelayMeterSink::consume(const double* samples, std::size_t n) {
  edge_sink_.consume(samples, n);
}

void DelayMeterSink::finish() {
  std::vector<double> rt, ot;
  std::vector<bool> rr, orr;
  for (const auto& e : reference_->edges()) {
    rt.push_back(e.t_ps);
    rr.push_back(e.rising);
  }
  for (const auto& e : edge_sink_.edges()) {
    ot.push_back(e.t_ps);
    orr.push_back(e.rising);
  }
  result_ = measure_delay_edges(rt, rr, ot, orr, opt_.require_equal_counts);
}

void DelayMeterSink::save_state(util::ByteWriter& w) const {
  w.u32(kKindDelayMeter);
  w.f64(opt_.threshold_v);
  w.f64(opt_.hysteresis_v);
  w.f64(opt_.settle_ps);
  w.u8(opt_.require_equal_counts ? 1 : 0);
  edge_sink_.save_state(w);
}

void DelayMeterSink::load_state(util::ByteReader& r) {
  expect_kind(r, kKindDelayMeter, "DelayMeterSink");
  opt_.threshold_v = r.f64();
  opt_.hysteresis_v = r.f64();
  opt_.settle_ps = r.f64();
  opt_.require_equal_counts = r.u8() != 0;
  edge_sink_.load_state(r);
  result_ = DelayMeasurement{};
}

void DelayMeterSink::merge_from(const ISampleSink& other) {
  const auto* o = dynamic_cast<const DelayMeterSink*>(&other);
  if (!o) throw std::logic_error("DelayMeterSink: merge type mismatch");
  edge_sink_.merge_from(o->edge_sink_);
  finish();
}

}  // namespace gdelay::meas
