#include "core/fine_delay.h"

#include <stdexcept>

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
  vctrl_ = v;
  for (auto& s : stages_) s.set_vctrl(v);
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

void FineDelayLine::process_block(const double* in, double* out,
                                  std::size_t n, double dt_ps) {
  process_block(in, nullptr, out, n, dt_ps);
}

void FineDelayLine::process_block(const double* in, const double* vctrl,
                                  double* out, std::size_t n, double dt_ps) {
  stages_.front().process_block(in, vctrl, out, n, dt_ps);
  for (std::size_t s = 1; s < stages_.size(); ++s)
    stages_[s].process_block(out, vctrl, out, n, dt_ps);
  out_.process_block(out, out, n, dt_ps);
  if (vctrl != nullptr && n > 0) vctrl_ = vctrl[n - 1];
}

sig::Waveform FineDelayLine::process(const sig::Waveform& in) {
  return analog::run_blocked(*this, in);
}

}  // namespace gdelay::core
