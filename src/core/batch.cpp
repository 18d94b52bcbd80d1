#include "core/batch.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "analog/element.h"
#include "util/scratch.h"
#include "util/thread_pool.h"

namespace gdelay::core {

namespace {

constexpr std::size_t kChunk = analog::kBlockSamples;
/// Devices per run_lanes() call in lane_edges(): one AVX2 vector, and
/// one stream group of the scalar table's kernels.
constexpr std::size_t kGroup = 4;

int n_stages(const VariableDelayChannel& ch) { return ch.fine().n_stages(); }
int n_stages(const FineDelayLine& line) { return line.n_stages(); }

template <typename Device>
void check_lanes(const std::vector<Device*>& devices, const char* caller) {
  if (devices.empty())
    throw std::logic_error(std::string(caller) + ": no devices");
  for (auto it = devices.begin(); it != devices.end(); ++it) {
    if (n_stages(**it) != n_stages(*devices.front()))
      throw std::logic_error(std::string(caller) +
                             ": fine stage-count mismatch");
    if (std::find(devices.begin(), it, *it) != it)
      throw std::logic_error(std::string(caller) + ": device listed twice");
  }
}

}  // namespace

template <typename Device>
void run_lanes(const std::vector<Device*>& devices,
               const sig::Waveform& stimulus,
               const std::vector<meas::ISampleSink*>& sinks) {
  check_lanes(devices, "run_lanes");
  const std::size_t w = devices.size();
  if (sinks.size() != w)
    throw std::invalid_argument("run_lanes: one sink per device required");
  for (Device* d : devices) d->reset();
  for (auto* sink : sinks)
    sink->begin(stimulus.t0_ps(), stimulus.dt_ps(), stimulus.size());
  util::ScratchBuffer ilv(kChunk * w), col(kChunk);
  const double dt = stimulus.dt_ps();
  const std::size_t total = stimulus.size();
  const double* src = stimulus.samples().data();
  for (std::size_t o = 0; o < total; o += kChunk) {
    const std::size_t n = std::min(kChunk, total - o);
    for (std::size_t i = 0; i < n; ++i)
      std::fill_n(ilv.data() + i * w, w, src[o + i]);
    if constexpr (std::is_same_v<Device, FineDelayLine>)
      FineDelayLine::process_lanes(devices.data(), w, ilv.data(), nullptr,
                                   ilv.data(), n, dt);
    else
      VariableDelayChannel::process_lanes(devices.data(), w, ilv.data(),
                                          ilv.data(), n, dt);
    for (std::size_t s = 0; s < w; ++s) {
      for (std::size_t i = 0; i < n; ++i) col[i] = ilv[i * w + s];
      sinks[s]->consume(col.data(), n);
    }
  }
  for (auto* sink : sinks) sink->finish();
}

template <typename Device>
std::vector<std::vector<sig::Edge>> lane_edges(
    const std::vector<Device*>& devices, const sig::Waveform& stimulus,
    const meas::DelayMeterOptions& opt) {
  // Two tasks over one device would race on its state and its RNG.
  check_lanes(devices, "lane_edges");
  meas::check_options(opt, "lane_edges");
  const std::size_t n_groups = (devices.size() + kGroup - 1) / kGroup;
  const auto groups = util::parallel_map(n_groups, [&](std::size_t g) {
    const auto lo = devices.begin() + static_cast<std::ptrdiff_t>(g * kGroup);
    const auto hi = devices.begin() + static_cast<std::ptrdiff_t>(std::min(
                                          (g + 1) * kGroup, devices.size()));
    std::vector<meas::EdgeSink> sinks(static_cast<std::size_t>(hi - lo),
                                      meas::EdgeSink(opt));
    std::vector<meas::ISampleSink*> ptrs;
    ptrs.reserve(sinks.size());
    for (auto& s : sinks) ptrs.push_back(&s);
    run_lanes(std::vector<Device*>(lo, hi), stimulus, ptrs);
    std::vector<std::vector<sig::Edge>> edges;
    edges.reserve(sinks.size());
    for (const auto& s : sinks) edges.push_back(s.edges());
    return edges;
  });
  std::vector<std::vector<sig::Edge>> flat;
  flat.reserve(devices.size());
  for (const auto& g : groups) flat.insert(flat.end(), g.begin(), g.end());
  return flat;
}

template void run_lanes(const std::vector<VariableDelayChannel*>&,
                        const sig::Waveform&,
                        const std::vector<meas::ISampleSink*>&);
template void run_lanes(const std::vector<FineDelayLine*>&,
                        const sig::Waveform&,
                        const std::vector<meas::ISampleSink*>&);
template std::vector<std::vector<sig::Edge>> lane_edges(
    const std::vector<VariableDelayChannel*>&, const sig::Waveform&,
    const meas::DelayMeterOptions&);
template std::vector<std::vector<sig::Edge>> lane_edges(
    const std::vector<FineDelayLine*>&, const sig::Waveform&,
    const meas::DelayMeterOptions&);

}  // namespace gdelay::core
