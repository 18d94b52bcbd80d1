// Dense, uniformly sampled differential waveform.
//
// This is the common currency of the library: pattern generators produce
// waveforms, analog elements transform them, instruments measure them.
// Samples are differential voltages (V); the time axis is picoseconds.
// Value semantics throughout — a Waveform is just (t0, dt, samples).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace gdelay::sig {

class Waveform {
 public:
  Waveform() = default;

  /// Uninitialized-to-zero waveform of `n` samples.
  Waveform(double t0_ps, double dt_ps, std::size_t n);

  /// Waveform from existing samples.
  Waveform(double t0_ps, double dt_ps, std::vector<double> samples);

  /// Waveform sampled from a function of time.
  static Waveform from_function(double t0_ps, double dt_ps, std::size_t n,
                                const std::function<double(double)>& f);

  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double t0_ps() const { return t0_; }
  double dt_ps() const { return dt_; }
  /// Time of sample i.
  double time_at(std::size_t i) const { return t0_ + dt_ * static_cast<double>(i); }
  /// Time of the last sample.
  double t_end_ps() const { return empty() ? t0_ : time_at(size() - 1); }
  /// Total spanned time.
  double duration_ps() const { return empty() ? 0.0 : dt_ * static_cast<double>(size() - 1); }

  double operator[](std::size_t i) const { return v_[i]; }
  double& operator[](std::size_t i) { return v_[i]; }
  const std::vector<double>& samples() const { return v_; }
  std::vector<double>& samples() { return v_; }

  /// Linear interpolation at an arbitrary time; clamps outside the span.
  double value_at(double t_ps) const;

  /// Min / max / peak-to-peak sample values.
  double min_value() const;
  double max_value() const;
  double peak_to_peak() const;

  /// In-place scale and offset: v <- v * gain + offset.
  Waveform& scale(double gain, double offset = 0.0);

  /// Returns a copy shifted in time by `shift_ps` (pure relabeling of the
  /// time axis; samples are untouched).
  Waveform shifted(double shift_ps) const;

  /// In-place time shift: relabels the time axis without copying samples.
  Waveform& shift(double shift_ps) {
    t0_ += shift_ps;
    return *this;
  }

  /// Returns the sub-waveform covering [t_from, t_to] (clamped).
  Waveform slice(double t_from_ps, double t_to_ps) const;

 private:
  double t0_ = 0.0;
  double dt_ = 1.0;
  std::vector<double> v_;
};

}  // namespace gdelay::sig
