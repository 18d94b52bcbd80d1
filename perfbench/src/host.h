// Host and run stamp printed with every result, so numbers from different
// machines, builds or backends are never compared by accident.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunStamp {
  std::string workload;
  std::uint64_t seed = 0;
  int threads = 0;
  bool trace = false;
};

/// One-line JSON object: CPU model, nproc, threads used, compiler, build
/// type, compute backend (name, ISA, dispatch reason), git rev and seed.
std::string stamp_json(const RunStamp& run);

/// Online CPUs of this host.
int host_nproc();

/// CPU time consumed so far, ns: by the whole process (every thread) when
/// `whole_process`, else by the calling thread. On a kernel that accounts
/// steal time, neither counts the time a vCPU stood descheduled by the
/// hypervisor, which is what makes these readings steadier than wall time
/// on a shared host.
std::int64_t cpu_ns(bool whole_process);

/// Peak resident set of the process so far, MiB.
double peak_rss_mib();

}  // namespace perfbench
