// Host-speed probe: a fixed kernel, independent of the library, whose CPU
// time tracks how fast the host runs this process's threads right now.
#pragma once

#include <vector>

namespace perfbench {

/// The probe's CPU seconds on the reference host speed. The gated times
/// are scaled by kProbeReferenceS / (the run's median probe), so a run on
/// a host slowed by its neighbours reads what it would on that host.
inline constexpr double kProbeReferenceS = 0.009;

/// Runs the probe kernel once on each of `threads` pool tasks at the same
/// time and returns each run's thread CPU seconds.
std::vector<double> probe_host_speed(int threads);

}  // namespace perfbench
