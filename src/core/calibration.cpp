#include "core/calibration.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/batch.h"
#include "measure/delay_meter.h"
#include "util/thread_pool.h"

namespace gdelay::core {
namespace {

meas::DelayMeterOptions meter_options(double settle_ps) {
  meas::DelayMeterOptions o;
  o.settle_ps = settle_ps;
  return o;
}

// Shared engine behind every clone-based measurement: runs `count`
// programmed clones of `dev` through the lane-batched executor
// (core/batch.h) in groups of four — one AVX2 vector, and one stream
// group of the scalar table's kernels — with one thread-pool task per
// group, and reduces each output waveform with `measure`.
// `program(clone, i)` applies the per-point programming
// (fork_noise(i), Vctrl, tap). Each clone's waveform is bit-identical to
// its solo clone.process(stimulus) by the batch contract, and the
// group decomposition is a pure function of the index, so results stay
// bit-identical for any thread count — and to the pre-batching code.
template <typename Device, typename Program, typename Measure>
std::vector<double> measure_clones(const Device& dev,
                                   const sig::Waveform& stimulus,
                                   std::size_t count, Program program,
                                   Measure measure) {
  constexpr std::size_t kGroup = 4;
  const std::size_t n_groups = (count + kGroup - 1) / kGroup;
  const auto groups =
      util::parallel_map(n_groups, [&](std::size_t g) {
        const std::size_t lo = g * kGroup;
        const std::size_t hi = std::min(lo + kGroup, count);
        std::vector<Device> clones;
        clones.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          clones.push_back(dev);
          program(clones.back(), i);
        }
        BatchRunner runner;
        for (Device& c : clones) runner.add(c);
        const std::vector<sig::Waveform> outs = runner.run(stimulus);
        std::vector<double> vals(outs.size());
        for (std::size_t j = 0; j < outs.size(); ++j)
          vals[j] = measure(outs[j]);
        return vals;
      });
  std::vector<double> flat;
  flat.reserve(count);
  for (const auto& v : groups) flat.insert(flat.end(), v.begin(), v.end());
  return flat;
}

// Shared sweep engine behind both measure_fine_curve overloads. Each
// sweep point gets its own CLONE of the device (FineDelayLine and
// VariableDelayChannel are value types), programmed to its Vctrl; the
// points run four to a lane group through the batched executor. Point 0
// sits at Vctrl = 0 and doubles as the baseline the curve is referenced
// to. Forking by sweep index keeps the per-point noise realizations
// statistically independent while remaining a pure function of the
// index — the source of the bit-identical-at-any-thread-count guarantee.
template <typename Device>
util::Curve sweep_fine_curve(const Device& dev, const sig::Waveform& stimulus,
                             int n_points, double settle_ps) {
  if (n_points < 3)
    throw std::invalid_argument("DelayCalibrator: need >= 3 sweep points");
  const double vmax = dev.vctrl_max();
  const auto opts = meter_options(settle_ps);

  std::vector<double> xs(static_cast<std::size_t>(n_points));
  for (int i = 0; i < n_points; ++i)
    xs[static_cast<std::size_t>(i)] =
        vmax * static_cast<double>(i) / static_cast<double>(n_points - 1);

  std::vector<double> ys = measure_clones(
      dev, stimulus, xs.size(),
      [&](Device& clone, std::size_t i) {
        clone.fork_noise(i);
        clone.set_vctrl(xs[i]);
      },
      [&](const sig::Waveform& out) {
        return meas::measure_delay(stimulus, out, opts).mean_ps;
      });

  const double d0 = ys.front();  // baseline: the Vctrl = 0 point
  for (double& y : ys) y -= d0;
  // The physical characteristic is monotone; clean residual measurement
  // noise off the flat ends before the curve is used for inversion.
  return util::Curve(std::move(xs), std::move(ys)).monotonicized();
}

}  // namespace

double ChannelCalibration::resolution_ps() const {
  // The delay step produced by one DAC LSB is slope * LSB; take the worst
  // (largest) slope over the measured curve segments.
  const auto& xs = fine_curve.xs();
  const auto& ys = fine_curve.ys();
  double worst = 0.0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    const double slope = std::abs((ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1]));
    worst = std::max(worst, slope);
  }
  return worst * dac.lsb_v();
}

double ChannelCalibration::predicted_delay_ps(int tap, double vctrl) const {
  if (tap < 0 || tap >= 4)
    throw std::invalid_argument("ChannelCalibration: tap out of range");
  return tap_offset_ps[static_cast<std::size_t>(tap)] + fine_curve(vctrl);
}

double ChannelCalibration::predicted_latency_ps(int tap, double vctrl) const {
  return base_latency_ps + predicted_delay_ps(tap, vctrl);
}

DelaySetting ChannelCalibration::plan(double relative_delay_ps) const {
  if (std::isnan(relative_delay_ps))
    throw std::invalid_argument("ChannelCalibration::plan: NaN delay");
  const double fine_lo = fine_curve.y_min();
  const double fine_hi = fine_curve.y_max();
  const double target =
      std::clamp(relative_delay_ps, 0.0, total_range_ps());

  // Choose the tap whose required fine contribution sits closest to the
  // middle of the fine range (maximum headroom for later retrim).
  int best_tap = 0;
  double best_badness = std::numeric_limits<double>::infinity();
  for (int tap = 0; tap < 4; ++tap) {
    const double need =
        target - tap_offset_ps[static_cast<std::size_t>(tap)];
    if (need < fine_lo - 1e-9 || need > fine_hi + 1e-9) continue;
    const double badness = std::abs(need - (fine_lo + fine_hi) / 2.0);
    if (badness < best_badness) {
      best_badness = badness;
      best_tap = tap;
    }
  }
  if (!std::isfinite(best_badness)) {
    // No tap covers the target exactly (possible at the extreme ends with
    // tap errors); fall back to the tap minimizing the clamped error.
    double best_err = std::numeric_limits<double>::infinity();
    for (int tap = 0; tap < 4; ++tap) {
      const double need =
          target - tap_offset_ps[static_cast<std::size_t>(tap)];
      const double clamped = std::clamp(need, fine_lo, fine_hi);
      const double err = std::abs(need - clamped);
      if (err < best_err) {
        best_err = err;
        best_tap = tap;
      }
    }
  }

  DelaySetting s;
  s.tap = best_tap;
  const double need =
      std::clamp(target - tap_offset_ps[static_cast<std::size_t>(best_tap)],
                 fine_lo, fine_hi);
  const double vctrl_ideal = fine_curve.invert(need);
  s.dac_code = dac.code_for(vctrl_ideal);
  s.vctrl_v = dac.voltage(s.dac_code);
  s.predicted_delay_ps = predicted_delay_ps(best_tap, s.vctrl_v);
  return s;
}

DelayCalibrator::DelayCalibrator(const Options& opt) : opt_(opt) {
  if (!std::isfinite(opt.settle_ps))
    throw std::invalid_argument("DelayCalibrator: settle_ps must be finite");
}

util::Curve DelayCalibrator::measure_fine_curve(
    const FineDelayLine& line, const sig::Waveform& stimulus) const {
  return sweep_fine_curve(line, stimulus, opt_.n_vctrl_points,
                          opt_.settle_ps);
}

util::Curve DelayCalibrator::measure_fine_curve(
    const VariableDelayChannel& ch, const sig::Waveform& stimulus) const {
  return sweep_fine_curve(ch, stimulus, opt_.n_vctrl_points, opt_.settle_ps);
}

ChannelCalibration DelayCalibrator::calibrate(
    const VariableDelayChannel& ch, const sig::Waveform& stimulus) const {
  ChannelCalibration cal;
  cal.dac = opt_.dac;

  // Fine sweep on tap 0.
  VariableDelayChannel tap0 = ch;
  tap0.select_tap(0);
  cal.fine_curve = measure_fine_curve(tap0, stimulus);

  // Absolute latency per tap at Vctrl = 0: four clones, one lane group.
  const auto opts = meter_options(opt_.settle_ps);
  const std::vector<double> latency = measure_clones(
      ch, stimulus, std::size_t{4},
      [&](VariableDelayChannel& clone, std::size_t tap) {
        clone.fork_noise(100 + tap);  // distinct from the sweep streams
        clone.select_tap(static_cast<int>(tap));
        clone.set_vctrl(0.0);
      },
      [&](const sig::Waveform& out) {
        return meas::measure_delay(stimulus, out, opts).mean_ps;
      });
  cal.base_latency_ps = latency[0];
  for (std::size_t tap = 0; tap < 4; ++tap)
    cal.tap_offset_ps[tap] = latency[tap] - latency[0];
  return cal;
}

double DelayCalibrator::measure_fine_range(
    const FineDelayLine& line, const sig::Waveform& stimulus) const {
  const auto opts = meter_options(opt_.settle_ps);
  const std::vector<double> ends = measure_clones(
      line, stimulus, std::size_t{2},
      [&](FineDelayLine& clone, std::size_t i) {
        clone.fork_noise(i);
        clone.set_vctrl(i == 0 ? 0.0 : line.vctrl_max());
      },
      [&](const sig::Waveform& out) {
        return meas::measure_delay(stimulus, out, opts).mean_ps;
      });
  return ends[1] - ends[0];
}

double DelayCalibrator::measure_fine_range_periodic(
    const FineDelayLine& line, const sig::Waveform& stimulus, double ui_ps,
    int n_steps) const {
  if (n_steps < 1)
    throw std::invalid_argument("measure_fine_range_periodic: n_steps >= 1");
  const auto opts = meter_options(opt_.settle_ps);

  // Phase at every sweep point is an independent measurement; only the
  // wrap-and-accumulate of adjacent deltas is inherently sequential.
  const std::vector<double> phase = measure_clones(
      line, stimulus, static_cast<std::size_t>(n_steps) + 1,
      [&](FineDelayLine& clone, std::size_t i) {
        clone.fork_noise(i);
        clone.set_vctrl(line.vctrl_max() * static_cast<double>(i) /
                        static_cast<double>(n_steps));
      },
      [&](const sig::Waveform& out) {
        return meas::measure_phase_delay(stimulus, out, ui_ps, opts);
      });

  double total = 0.0;
  for (int i = 1; i <= n_steps; ++i)
    total += meas::wrap_delay(
        phase[static_cast<std::size_t>(i)] -
            phase[static_cast<std::size_t>(i) - 1],
        ui_ps);
  return total;
}

}  // namespace gdelay::core
