#include "measure/sinks.h"

#include <cstring>
#include <stdexcept>

#include "measure/stats.h"

namespace gdelay::meas {

void WaveformCaptureSink::begin(double t0_ps, double dt_ps,
                                std::size_t total_n) {
  wf_ = sig::Waveform(t0_ps, dt_ps, total_n);
  pos_ = 0;
}

void WaveformCaptureSink::consume(const double* samples, std::size_t n) {
  std::memcpy(wf_.samples().data() + pos_, samples, n * sizeof(double));
  pos_ += n;
}

EyeSink::EyeSink(EyeDiagram eye, double phase_ps, double settle_ps)
    : eye_(std::move(eye)), phase_ps_(phase_ps), settle_ps_(settle_ps) {
  require_finite(phase_ps, "EyeSink", "phase_ps");
  require_finite(settle_ps, "EyeSink", "settle_ps");
}

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

LevelHistogramSink::LevelHistogramSink(double lo, double hi,
                                       std::size_t n_bins, double settle_ps)
    : hist_(lo, hi, n_bins), settle_ps_(settle_ps) {
  require_finite(settle_ps, "LevelHistogramSink", "settle_ps");
}

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

EdgeSink::EdgeSink(const CrossingOptions& opt)
    : opt_(check_options(opt, "EdgeSink")) {}

void EdgeSink::begin(double t0_ps, double dt_ps, std::size_t) {
  sig::EdgeExtractOptions eo;
  eo.threshold_v = opt_.threshold_v;
  eo.hysteresis_v = opt_.hysteresis_v;
  eo.t_min_ps = t0_ps + opt_.settle_ps;
  extractor_.emplace(t0_ps, dt_ps, eo);
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

JitterSink::JitterSink(double ui_ps, const CrossingOptions& opt)
    : ui_ps_(ui_ps), edge_sink_(check_options(opt, "JitterSink")) {
  require_ui(ui_ps, "JitterSink");
}

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

}  // namespace gdelay::meas
