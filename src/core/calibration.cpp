#include "core/calibration.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/batch.h"
#include "measure/delay_meter.h"
#include "measure/stats.h"

namespace gdelay::core {
namespace {

meas::DelayMeterOptions meter_options(double settle_ps) {
  meas::DelayMeterOptions o;
  o.settle_ps = settle_ps;
  return o;
}

// Shared engine behind every clone-based measurement: builds `count`
// clones of `dev`, each programmed by `program(clone, i)` (fork_noise(i),
// Vctrl, tap), and returns each one's output edges from core::lane_edges
// (core/batch.h) — four clones to a lane group, one thread-pool task per
// group, no output waveform materialized. Each clone's edges are those of
// its solo clone.process(stimulus) by the batch contract, and the group
// decomposition is a pure function of the index, so results stay
// bit-identical for any thread count — and to the pre-batching code.
template <typename Device, typename Program>
std::vector<std::vector<sig::Edge>> clone_edges(
    const Device& dev, const sig::Waveform& stimulus, std::size_t count,
    const meas::DelayMeterOptions& opts, Program program) {
  std::vector<Device> clones(count, dev);
  std::vector<Device*> lanes;
  lanes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    program(clones[i], i);
    lanes.push_back(&clones[i]);
  }
  return lane_edges(lanes, stimulus, opts);
}

// Mean delay of each clone's edges against the stimulus edges `ref`,
// extracted once by the caller. A clone with no edges throws
// std::runtime_error, for the lowest such index.
std::vector<double> mean_delays(
    const std::vector<sig::Edge>& ref,
    const std::vector<std::vector<sig::Edge>>& clones) {
  std::vector<double> delays;
  delays.reserve(clones.size());
  for (const auto& out : clones)
    delays.push_back(meas::measure_delay_edges(ref, out).mean_ps);
  return delays;
}

// The fine-curve sweep. Each sweep point gets its own CLONE of the device
// (FineDelayLine and VariableDelayChannel are value types), programmed to
// its Vctrl. Point 0 sits at Vctrl = 0 and doubles as the baseline the
// curve is referenced to. Forking by sweep index keeps the per-point
// noise realizations statistically independent while remaining a pure
// function of the index — the source of the bit-identical-at-any-thread-
// count guarantee.
template <typename Device>
util::Curve sweep_fine_curve(const Device& dev, const sig::Waveform& stimulus,
                             const std::vector<sig::Edge>& ref, int n_points,
                             const meas::DelayMeterOptions& opts) {
  if (n_points < 3)
    throw std::invalid_argument("DelayCalibrator: need >= 3 sweep points");
  const double vmax = dev.vctrl_max();

  std::vector<double> xs(static_cast<std::size_t>(n_points));
  for (int i = 0; i < n_points; ++i)
    xs[static_cast<std::size_t>(i)] =
        vmax * static_cast<double>(i) / static_cast<double>(n_points - 1);

  std::vector<double> ys = mean_delays(
      ref, clone_edges(dev, stimulus, xs.size(), opts,
                       [&](Device& clone, std::size_t i) {
                         clone.fork_noise(i);
                         clone.set_vctrl(xs[i]);
                       }));

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
  const auto opts = meter_options(opt_.settle_ps);
  return sweep_fine_curve(line, stimulus, meas::delay_edges(stimulus, opts),
                          opt_.n_vctrl_points, opts);
}

ChannelCalibration DelayCalibrator::calibrate(
    const VariableDelayChannel& ch, const sig::Waveform& stimulus) const {
  const auto opts = meter_options(opt_.settle_ps);
  const auto ref = meas::delay_edges(stimulus, opts);
  ChannelCalibration cal;

  // Fine sweep on tap 0.
  VariableDelayChannel tap0 = ch;
  tap0.select_tap(0);
  cal.fine_curve =
      sweep_fine_curve(tap0, stimulus, ref, opt_.n_vctrl_points, opts);

  // Absolute latency per tap at Vctrl = 0: four clones, one lane group.
  const std::vector<double> latency = mean_delays(
      ref, clone_edges(ch, stimulus, std::size_t{4}, opts,
                       [&](VariableDelayChannel& clone, std::size_t tap) {
                         // distinct from the sweep streams
                         clone.fork_noise(100 + tap);
                         clone.select_tap(static_cast<int>(tap));
                         clone.set_vctrl(0.0);
                       }));
  cal.base_latency_ps = latency[0];
  for (std::size_t tap = 0; tap < 4; ++tap)
    cal.tap_offset_ps[tap] = latency[tap] - latency[0];
  return cal;
}

double DelayCalibrator::measure_fine_range(
    const FineDelayLine& line, const sig::Waveform& stimulus) const {
  const auto opts = meter_options(opt_.settle_ps);
  const std::vector<double> ends = mean_delays(
      meas::delay_edges(stimulus, opts),
      clone_edges(line, stimulus, std::size_t{2}, opts,
                  [&](FineDelayLine& clone, std::size_t i) {
                    clone.fork_noise(i);
                    clone.set_vctrl(i == 0 ? 0.0 : line.vctrl_max());
                  }));
  return ends[1] - ends[0];
}

double DelayCalibrator::measure_fine_range_periodic(
    const FineDelayLine& line, const sig::Waveform& stimulus, double ui_ps,
    int n_steps) const {
  if (n_steps < 1)
    throw std::invalid_argument("measure_fine_range_periodic: n_steps >= 1");
  meas::require_ui(ui_ps, "measure_fine_range_periodic");
  const auto opts = meter_options(opt_.settle_ps);

  // Phase at every sweep point is an independent measurement; only the
  // wrap-and-accumulate of adjacent deltas is inherently sequential.
  const auto ref = meas::delay_edges(stimulus, opts);
  const auto outs = clone_edges(
      line, stimulus, static_cast<std::size_t>(n_steps) + 1, opts,
      [&](FineDelayLine& clone, std::size_t i) {
        clone.fork_noise(i);
        clone.set_vctrl(line.vctrl_max() * static_cast<double>(i) /
                        static_cast<double>(n_steps));
      });
  std::vector<double> phase;
  phase.reserve(outs.size());
  for (const auto& out : outs)
    phase.push_back(meas::phase_delay_edges(ref, out, ui_ps));

  double total = 0.0;
  for (int i = 1; i <= n_steps; ++i)
    total += meas::wrap_delay(
        phase[static_cast<std::size_t>(i)] -
            phase[static_cast<std::size_t>(i) - 1],
        ui_ps);
  return total;
}

}  // namespace gdelay::core
