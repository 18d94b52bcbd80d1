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

// Each clone's output edges from core::lane_edges (core/batch.h): four
// clones to a lane group, one thread-pool task per group, no output
// waveform materialized. Each clone's edges are those of its solo
// clone.process(stimulus) by the batch contract, and the groups are a
// pure function of the list, so results stay bit-identical for any
// thread count — and to the pre-batching per-clone code.
template <typename Device>
std::vector<std::vector<sig::Edge>> clone_edges(
    std::vector<Device>& clones, const sig::Waveform& stimulus,
    const meas::DelayMeterOptions& opts) {
  std::vector<Device*> lanes;
  lanes.reserve(clones.size());
  for (Device& c : clones) lanes.push_back(&c);
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

// Every Vctrl sweep's programming: appends `n_points` (>= 2) CLONES of
// `dev` (FineDelayLine and VariableDelayChannel are value types) to
// `clones`, clone i on noise stream i at Vctrl xs[i], evenly across
// [0, vctrl_max], and returns xs. Point 0 sits at Vctrl = 0 and doubles
// as the baseline the fine curve is referenced to. Forking by sweep
// index keeps the per-point noise realizations statistically
// independent while remaining a pure function of the index — the source
// of the bit-identical-at-any-thread-count guarantee.
template <typename Device>
std::vector<double> add_sweep(const Device& dev, std::size_t n_points,
                              std::vector<Device>& clones) {
  std::vector<double> xs(n_points);
  for (std::size_t i = 0; i < n_points; ++i) {
    xs[i] = dev.vctrl_max() * static_cast<double>(i) /
            static_cast<double>(n_points - 1);
    clones.push_back(dev);
    clones.back().fork_noise(i);
    clones.back().set_vctrl(xs[i]);
  }
  return xs;
}

// The sweep's reduction: each point's delay `ys` relative to point 0,
// cleaned of residual measurement noise on the flat ends (the physical
// characteristic is monotone) before the curve is used for inversion.
util::Curve fine_curve(std::vector<double> xs, std::vector<double> ys) {
  const double d0 = ys.front();  // baseline: the Vctrl = 0 point
  for (double& y : ys) y -= d0;
  return util::Curve(std::move(xs), std::move(ys)).monotonicized();
}

// The fine curve's sweep points, checked before any clone is built.
std::size_t sweep_points(int n_points) {
  if (n_points < 3)
    throw std::invalid_argument("DelayCalibrator: need >= 3 sweep points");
  return static_cast<std::size_t>(n_points);
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
  const std::size_t n = sweep_points(opt_.n_vctrl_points);
  const auto opts = meter_options(opt_.settle_ps);
  std::vector<FineDelayLine> clones;
  std::vector<double> xs = add_sweep(line, n, clones);
  return fine_curve(std::move(xs),
                    mean_delays(meas::delay_edges(stimulus, opts),
                                clone_edges(clones, stimulus, opts)));
}

std::vector<ChannelCalibration> DelayCalibrator::calibrate(
    std::span<const VariableDelayChannel> channels,
    const sig::Waveform& stimulus) const {
  const std::size_t n = sweep_points(opt_.n_vctrl_points);
  const auto opts = meter_options(opt_.settle_ps);
  if (channels.empty()) return {};
  // One lane list for the whole board, channel after channel: the fine
  // sweep on tap 0, then one clone per tap at Vctrl = 0 on noise streams
  // 100 + tap (distinct from the sweep streams).
  const std::size_t per_channel = n + CoarseDelayBlock::kTaps;
  std::vector<VariableDelayChannel> clones;
  clones.reserve(channels.size() * per_channel);
  std::vector<std::vector<double>> xs;
  for (const VariableDelayChannel& ch : channels) {
    VariableDelayChannel tap0 = ch;
    tap0.select_tap(0);
    xs.push_back(add_sweep(tap0, n, clones));
    for (int tap = 0; tap < CoarseDelayBlock::kTaps; ++tap) {
      clones.push_back(ch);
      clones.back().fork_noise(100 + static_cast<std::uint64_t>(tap));
      clones.back().select_tap(tap);
      clones.back().set_vctrl(0.0);
    }
  }
  const std::vector<double> delays =
      mean_delays(meas::delay_edges(stimulus, opts),
                  clone_edges(clones, stimulus, opts));

  std::vector<ChannelCalibration> cals(channels.size());
  for (std::size_t c = 0; c < cals.size(); ++c) {
    const double* sweep = delays.data() + c * per_channel;
    const double* latency = sweep + n;
    cals[c].fine_curve =
        fine_curve(std::move(xs[c]), std::vector<double>(sweep, latency));
    cals[c].base_latency_ps = latency[0];
    for (std::size_t tap = 0; tap < cals[c].tap_offset_ps.size(); ++tap)
      cals[c].tap_offset_ps[tap] = latency[tap] - latency[0];
  }
  return cals;
}

ChannelCalibration DelayCalibrator::calibrate(
    const VariableDelayChannel& ch, const sig::Waveform& stimulus) const {
  return calibrate(std::span(&ch, 1), stimulus).front();
}

double DelayCalibrator::measure_fine_range(
    const FineDelayLine& line, const sig::Waveform& stimulus) const {
  const auto opts = meter_options(opt_.settle_ps);
  std::vector<FineDelayLine> clones;
  add_sweep(line, 2, clones);  // Vctrl = 0 and vctrl_max
  const std::vector<double> ends =
      mean_delays(meas::delay_edges(stimulus, opts),
                  clone_edges(clones, stimulus, opts));
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
  std::vector<FineDelayLine> clones;
  add_sweep(line, static_cast<std::size_t>(n_steps) + 1, clones);
  const auto outs = clone_edges(clones, stimulus, opts);
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
