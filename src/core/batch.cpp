#include "core/batch.h"

#include <algorithm>
#include <stdexcept>

#include "analog/element.h"

namespace gdelay::core {

namespace {
constexpr std::size_t kChunk = analog::kBlockSamples;
}  // namespace

void BatchRunner::add(VariableDelayChannel& ch) {
  if (!fines_.empty())
    throw std::logic_error(
        "BatchRunner: cannot mix whole channels and bare fine lines");
  if (!channels_.empty() &&
      ch.fine().n_stages() != channels_.front()->fine().n_stages())
    throw std::logic_error("BatchRunner: fine stage-count mismatch");
  if (std::find(channels_.begin(), channels_.end(), &ch) != channels_.end())
    throw std::logic_error("BatchRunner: stream already added");
  channels_.push_back(&ch);
}

void BatchRunner::add(FineDelayLine& line) {
  if (!channels_.empty())
    throw std::logic_error(
        "BatchRunner: cannot mix whole channels and bare fine lines");
  if (!fines_.empty() && line.n_stages() != fines_.front()->n_stages())
    throw std::logic_error("BatchRunner: fine stage-count mismatch");
  if (std::find(fines_.begin(), fines_.end(), &line) != fines_.end())
    throw std::logic_error("BatchRunner: stream already added");
  fines_.push_back(&line);
}

template <typename Emit>
void BatchRunner::run_chunks(const sig::Waveform& stimulus, Emit emit) {
  const std::size_t w = width();
  if (w == 0) throw std::logic_error("BatchRunner: no streams added");
  for (auto* ch : channels_) ch->reset();
  for (auto* f : fines_) f->reset();
  ilv_.resize(kChunk * w);
  const double dt = stimulus.dt_ps();
  const std::size_t total = stimulus.size();
  const double* src = stimulus.samples().data();
  for (std::size_t o = 0; o < total; o += kChunk) {
    const std::size_t n = std::min(kChunk, total - o);
    for (std::size_t i = 0; i < n; ++i)
      std::fill_n(ilv_.data() + i * w, w, src[o + i]);
    if (!channels_.empty())
      VariableDelayChannel::process_lanes(channels_.data(), w, ilv_.data(),
                                          ilv_.data(), n, dt);
    else
      FineDelayLine::process_lanes(fines_.data(), w, ilv_.data(), nullptr,
                                   ilv_.data(), n, dt);
    emit(ilv_.data(), o, n);
  }
}

std::vector<sig::Waveform> BatchRunner::run(const sig::Waveform& stimulus) {
  std::vector<sig::Waveform> outs;
  run(stimulus, outs);
  return outs;
}

void BatchRunner::run(const sig::Waveform& stimulus,
                      std::vector<sig::Waveform>& outs) {
  const std::size_t w = width();
  if (outs.size() != w) outs.resize(w);
  for (auto& o : outs)
    if (!o.same_grid(stimulus))
      o = sig::Waveform(stimulus.t0_ps(), stimulus.dt_ps(), stimulus.size());
  run_chunks(stimulus, [&](const double* buf, std::size_t o, std::size_t n) {
    for (std::size_t s = 0; s < w; ++s) {
      double* dst = outs[s].samples().data() + o;
      for (std::size_t i = 0; i < n; ++i) dst[i] = buf[i * w + s];
    }
  });
}

void BatchRunner::run(const sig::Waveform& stimulus,
                      const std::vector<meas::ISampleSink*>& sinks) {
  const std::size_t w = width();
  if (w == 0) throw std::logic_error("BatchRunner: no streams added");
  if (sinks.size() != w)
    throw std::invalid_argument("BatchRunner: one sink per stream required");
  for (auto* sink : sinks)
    sink->begin(stimulus.t0_ps(), stimulus.dt_ps(), stimulus.size());
  col_.resize(kChunk);
  run_chunks(stimulus, [&](const double* buf, std::size_t, std::size_t n) {
    for (std::size_t s = 0; s < w; ++s) {
      for (std::size_t i = 0; i < n; ++i) col_[i] = buf[i * w + s];
      sinks[s]->consume(col_.data(), n);
    }
  });
  for (auto* sink : sinks) sink->finish();
}

}  // namespace gdelay::core
