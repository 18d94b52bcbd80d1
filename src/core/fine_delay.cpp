#include "core/fine_delay.h"

#include <stdexcept>

#include "util/scratch.h"

namespace gdelay::core {

FineDelayLine::FineDelayLine(const FineDelayConfig& cfg, util::Rng rng)
    : cfg_(cfg),
      vctrl_(cfg.stage.vctrl_max_v / 2.0),
      out_(cfg.output_stage, rng.fork(999)) {
  if (cfg.n_stages < 1)
    throw std::invalid_argument("FineDelayLine: need >= 1 stage");
  stages_.reserve(static_cast<std::size_t>(cfg.n_stages));
  for (int i = 0; i < cfg.n_stages; ++i)
    stages_.emplace_back(cfg.stage,
                         rng.fork(static_cast<std::uint64_t>(i)));
  set_vctrl(vctrl_);
}

void FineDelayLine::set_vctrl(double v) {
  // Stage 0's setter rejects a NaN before anything changes.
  for (auto& s : stages_) s.set_vctrl(v);
  vctrl_ = v;
}

void FineDelayLine::set_stage_vctrl(int stage, double v) {
  stages_.at(static_cast<std::size_t>(stage)).set_vctrl(v);
}

double FineDelayLine::stage_vctrl(int stage) const {
  return stages_.at(static_cast<std::size_t>(stage)).vctrl();
}

void FineDelayLine::fork_noise(std::uint64_t stream) {
  for (auto& s : stages_) s.fork_noise(stream);
  out_.fork_noise(stream);
}

void FineDelayLine::reset() {
  for (auto& s : stages_) s.reset();
  out_.reset();
}

void FineDelayLine::process_lanes(FineDelayLine* const* f, std::size_t w,
                                  const double* in, const double* vctrl,
                                  double* out, std::size_t n, double dt_ps) {
  // A(Vctrl) once per sample: every stage of a line is built from
  // cfg.stage, so stage 0's map is every stage's.
  util::ScratchBuffer amp(vctrl != nullptr ? n * w : 0);
  if (vctrl != nullptr) {
    for (std::size_t s = 0; s < w; ++s) {
      const analog::VariableGainBuffer& stage0 = f[s]->stages_[0];
      for (std::size_t i = 0; i < n; ++i)
        amp[i * w + s] = stage0.amplitude_for(vctrl[i * w + s]);
    }
  }
  for (std::size_t st = 0; st < f[0]->stages_.size(); ++st) {
    analog::LaneArray<analog::VariableGainBuffer*> stage(
        w, [&](std::size_t s) { return &f[s]->stages_[st]; });
    analog::VariableGainBuffer::process_lanes(
        stage.data(), w, st == 0 ? in : out,
        vctrl != nullptr ? amp.data() : nullptr, out, n, dt_ps);
  }
  analog::LimitingBuffer::process_lanes(
      analog::parts(f, w, &FineDelayLine::out_).data(), w, out, out, n,
      dt_ps);
  if (vctrl == nullptr || n == 0) return;
  for (std::size_t s = 0; s < w; ++s) {
    const double v = vctrl[(n - 1) * w + s];
    f[s]->vctrl_ = v;
    for (auto& stage : f[s]->stages_) stage.vctrl_ = v;
  }
}

sig::Waveform FineDelayLine::process(const sig::Waveform& in) {
  return analog::run_blocked(*this, in);
}

}  // namespace gdelay::core
