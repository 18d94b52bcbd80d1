#include "core/batch.h"

#include <algorithm>
#include <map>
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

// What run_lanes() and lane_edges() both require: a device, none listed
// twice, and one stimulus per device, all on one grid.
template <typename Device>
void check_lanes(const std::vector<Device*>& devices,
                 const std::vector<const sig::Waveform*>& stimuli,
                 const char* caller) {
  if (devices.empty())
    throw std::logic_error(std::string(caller) + ": no devices");
  for (auto it = devices.begin(); it != devices.end(); ++it)
    if (std::find(devices.begin(), it, *it) != it)
      throw std::logic_error(std::string(caller) + ": device listed twice");
  if (stimuli.size() != devices.size())
    throw std::invalid_argument(std::string(caller) +
                                ": one stimulus per device required");
  for (const sig::Waveform* s : stimuli)
    if (s->dt_ps() != stimuli.front()->dt_ps() ||
        s->size() != stimuli.front()->size())
      throw std::invalid_argument(
          std::string(caller) +
          ": every stimulus must have one dt and sample count");
}

}  // namespace

template <typename Device>
void run_lanes(const std::vector<Device*>& devices,
               const std::vector<const sig::Waveform*>& stimuli,
               const std::vector<meas::ISampleSink*>& sinks) {
  check_lanes(devices, stimuli, "run_lanes");
  for (const Device* d : devices)
    if (n_stages(*d) != n_stages(*devices.front()))
      throw std::logic_error("run_lanes: fine stage-count mismatch");
  const std::size_t w = devices.size();
  if (sinks.size() != w)
    throw std::invalid_argument("run_lanes: one sink per device required");
  const double dt = stimuli.front()->dt_ps();
  const std::size_t total = stimuli.front()->size();
  for (Device* d : devices) d->reset();
  for (std::size_t s = 0; s < w; ++s)
    sinks[s]->begin(stimuli[s]->t0_ps(), dt, total);
  util::ScratchBuffer ilv(kChunk * w), col(kChunk);
  for (std::size_t o = 0; o < total; o += kChunk) {
    const std::size_t n = std::min(kChunk, total - o);
    for (std::size_t s = 0; s < w; ++s) {
      const double* src = stimuli[s]->samples().data() + o;
      for (std::size_t i = 0; i < n; ++i) ilv[i * w + s] = src[i];
    }
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
    const std::vector<Device*>& devices,
    const std::vector<const sig::Waveform*>& stimuli,
    const meas::CrossingOptions& opt) {
  // Two tasks over one device would race on its state and its RNG.
  check_lanes(devices, stimuli, "lane_edges");
  meas::check_options(opt, "lane_edges");
  // Groups of up to kGroup list positions of one stage count, in list
  // order; each stage count fills the last group it started.
  std::vector<std::vector<std::size_t>> groups;
  std::map<int, std::size_t> open;  // stage count -> its group
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const auto [it, fresh] =
        open.try_emplace(n_stages(*devices[i]), groups.size());
    if (!fresh && groups[it->second].size() == kGroup)
      it->second = groups.size();
    if (it->second == groups.size()) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  auto edges = util::parallel_map(groups.size(), [&](std::size_t g) {
    std::vector<Device*> lanes;
    std::vector<const sig::Waveform*> stims;
    for (std::size_t i : groups[g]) {
      lanes.push_back(devices[i]);
      stims.push_back(stimuli[i]);
    }
    std::vector<meas::EdgeSink> sinks(lanes.size(), meas::EdgeSink(opt));
    std::vector<meas::ISampleSink*> ptrs;
    ptrs.reserve(sinks.size());
    for (auto& s : sinks) ptrs.push_back(&s);
    run_lanes(lanes, stims, ptrs);
    std::vector<std::vector<sig::Edge>> out;
    out.reserve(sinks.size());
    for (const auto& s : sinks) out.push_back(s.edges());
    return out;
  });
  std::vector<std::vector<sig::Edge>> flat(devices.size());
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t j = 0; j < groups[g].size(); ++j)
      flat[groups[g][j]] = std::move(edges[g][j]);
  return flat;
}

template void run_lanes(const std::vector<VariableDelayChannel*>&,
                        const std::vector<const sig::Waveform*>&,
                        const std::vector<meas::ISampleSink*>&);
template void run_lanes(const std::vector<FineDelayLine*>&,
                        const std::vector<const sig::Waveform*>&,
                        const std::vector<meas::ISampleSink*>&);
template std::vector<std::vector<sig::Edge>> lane_edges(
    const std::vector<VariableDelayChannel*>&,
    const std::vector<const sig::Waveform*>&, const meas::CrossingOptions&);
template std::vector<std::vector<sig::Edge>> lane_edges(
    const std::vector<FineDelayLine*>&,
    const std::vector<const sig::Waveform*>&, const meas::CrossingOptions&);

}  // namespace gdelay::core
