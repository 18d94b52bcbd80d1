// Lane-batched multi-device measurement.
//
// The serial-by-contract recursions (slew limiting, the VGA droop tail)
// cannot vectorize along time: a loop-carried nonlinear dependence. A
// single stream overlaps only what its own fine line offers, the four
// stages run as a wavefront (core::FineDelayLine::process_lanes). But
// the repo's dominant workloads — Monte-Carlo matching trials,
// calibration Vctrl sweeps, board channels — are embarrassingly
// parallel across DEVICES.
// run_lanes() exploits that: it transposes each chunk of the devices'
// stimuli into an interleaved time-major layout buf[i*w + s] (device s
// reads its own stimulus; the shared-stimulus call hands every device the
// same one), runs it through the devices' own lane pass
// (VariableDelayChannel::process_lanes / FineDelayLine::process_lanes —
// the very code their solo process_block() runs at w == 1), and feeds
// each device's output column into its sink. lane_edges() is the
// measurement path on top of it: groups of four devices of one fine
// stage count, in list order, one thread-pool task per group, each
// device's output streamed into an EdgeSink, so no output waveform is
// ever materialized. A whole board is one list: every channel's
// calibration clones (core/calibration.h), or every bus lane with its
// own launched waveform (ate/controller.h).
//
// Determinism contract (enforced by tests/test_block_kernels.cpp):
// every device's sink sees bytes identical to its solo run
// (device.process(its stimulus)) on the same backend, for ANY lane count
// and ANY device-to-lane assignment. Each device draws from its own RNG
// in the solo order, so fork_noise() decorrelation is preserved exactly.
// lane_edges() groups devices by list position and stage count, so its
// result is also identical for any GDELAY_THREADS.
#pragma once

#include <vector>

#include "core/channel.h"
#include "measure/delay_meter.h"
#include "measure/sinks.h"
#include "signal/edges.h"
#include "signal/waveform.h"

namespace gdelay::core {

/// Resets every device, then runs each device's stimulus (stimuli[s]
/// for device s) through it, all in lockstep kBlockSamples chunks — the
/// solo Pipeline's chunking, so incremental measurements match their
/// solo-run results — feeding device s's output into sinks[s], which
/// begins at stimuli[s]'s t0. Instantiated for VariableDelayChannel and
/// FineDelayLine; every device is borrowed and may differ in tap, Vctrl
/// and RNG stream, but fine lines must have one stage count. Every
/// stimulus must have one dt and sample count; t0 may differ (a bus
/// lane's launch offset). Throws std::logic_error for no devices, a
/// device listed twice (two lanes would advance one device's state) or
/// a stage-count mismatch, and std::invalid_argument unless there is one
/// stimulus and one sink per device and the stimuli share one grid; all
/// before any device runs. The chunk buffers are leased scratch.
template <typename Device>
void run_lanes(const std::vector<Device*>& devices,
               const std::vector<const sig::Waveform*>& stimuli,
               const std::vector<meas::ISampleSink*>& sinks);

/// The shared-stimulus call: run_lanes() with `stimulus` for every device.
template <typename Device>
void run_lanes(const std::vector<Device*>& devices,
               const sig::Waveform& stimulus,
               const std::vector<meas::ISampleSink*>& sinks) {
  run_lanes(devices,
            std::vector<const sig::Waveform*>(devices.size(), &stimulus),
            sinks);
}

/// Threshold crossings of each device's output for its stimulus: one
/// meas::EdgeSink(opt) per device, the sink meas::delay_edges() feeds a
/// whole waveform. Devices of one fine stage count run four to a
/// run_lanes() call in list order (a list may mix stage counts), one
/// global-pool task per group; results come back in list order. Checks
/// the whole list and the stimuli (as run_lanes(), a stage-count mix
/// aside) and `opt` (meas::check_options) before any device runs.
template <typename Device>
std::vector<std::vector<sig::Edge>> lane_edges(
    const std::vector<Device*>& devices,
    const std::vector<const sig::Waveform*>& stimuli,
    const meas::CrossingOptions& opt);

/// The shared-stimulus call: lane_edges() with `stimulus` for every
/// device.
template <typename Device>
std::vector<std::vector<sig::Edge>> lane_edges(
    const std::vector<Device*>& devices, const sig::Waveform& stimulus,
    const meas::CrossingOptions& opt) {
  return lane_edges(
      devices, std::vector<const sig::Waveform*>(devices.size(), &stimulus),
      opt);
}

}  // namespace gdelay::core
