#include "probe.h"

#include <cstddef>
#include <cstdint>

#include "host.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

constexpr std::size_t kProbeSamples = 800000;
constexpr std::size_t kRing = 8192;  // 64 KiB of doubles

volatile double g_sink = 0.0;

// The shape of the simulator's per-sample element path, in code of its
// own: two one-pole sections, a rational tanh limiter and an interpolated
// read from a delay ring.
double probe_kernel() {
  std::vector<double> ring(kRing, 0.0);
  double y1 = 0.0, y2 = 0.0, acc = 0.0, x = 0.3;
  for (std::size_t i = 0; i < kProbeSamples; ++i) {
    x = (i & 64) ? 0.4 : -0.4;
    y1 += 0.12 * (x - y1);
    const double u = 3.0 * y1;
    const double lim = u * (27.0 + u * u) / (27.0 + 9.0 * u * u);
    y2 += 0.25 * (lim - y2);
    const double pos = static_cast<double>(i) - 37.25 - 8.0 * y2;
    const auto k = static_cast<std::size_t>(pos < 0.0 ? 0.0 : pos);
    const double f = pos - static_cast<double>(k);
    const double d = (1.0 - f) * ring[k & (kRing - 1)] + f * ring[(k + 1) & (kRing - 1)];
    ring[i & (kRing - 1)] = y2;
    acc += d * d;
  }
  return acc;
}

}  // namespace

std::vector<double> probe_host_speed(int threads) {
  std::vector<double> cpu_s(static_cast<std::size_t>(threads));
  gdelay::util::parallel_for(cpu_s.size(), [&](std::size_t t) {
    const std::int64_t c0 = cpu_ns(false);
    g_sink = g_sink + probe_kernel();
    cpu_s[t] = 1e-9 * static_cast<double>(cpu_ns(false) - c0);
  });
  return cpu_s;
}

}  // namespace perfbench
