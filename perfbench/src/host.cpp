#include "host.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "backend/backend.h"

#ifndef PERFBENCH_GIT_REV
#define PERFBENCH_GIT_REV "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int host_nproc() {
  // CPUs this process may run on, as `nproc` counts them.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::int64_t cpu_ns(bool whole_process) {
  timespec ts{};
  if (::clock_gettime(whole_process ? CLOCK_PROCESS_CPUTIME_ID : CLOCK_THREAD_CPUTIME_ID,
                      &ts) != 0)
    return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double peak_rss_mib() {
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string stamp_json(const RunStamp& run) {
  const gdelay::backend::Kernels& k = gdelay::backend::active();
  std::ostringstream o;
  o << "{\"cpu_model\": " << quoted(cpu_model())
    << ", \"nproc\": " << host_nproc() << ", \"threads\": " << run.threads
    << ", \"compiler\": " << quoted(compiler())
    << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
    << ", \"backend\": {\"name\": " << quoted(k.name)
    << ", \"isa\": " << quoted(k.isa)
    << ", \"reason\": " << quoted(gdelay::backend::dispatch_reason())
    << "}, \"git_rev\": " << quoted(PERFBENCH_GIT_REV)
    << ", \"workload\": " << quoted(run.workload) << ", \"seed\": " << run.seed
    << ", \"trace\": " << (run.trace ? "true" : "false") << "}";
  return o.str();
}

}  // namespace perfbench
