#include "analog/element.h"

namespace gdelay::analog {

sig::Waveform AnalogElement::process(const sig::Waveform& in) {
  return run_blocked(*this, in);
}

sig::Waveform AnalogElement::process(sig::Waveform&& in) {
  reset();
  double* p = in.samples().data();
  const std::size_t total = in.size();
  for (std::size_t o = 0; o < total; o += kBlockSamples)
    process_block(p + o, p + o, std::min(kBlockSamples, total - o),
                  in.dt_ps());
  return std::move(in);
}

std::unique_ptr<AnalogElement> Cascade::clone() const {
  auto copy = std::make_unique<Cascade>();
  copy->stages_.reserve(stages_.size());
  for (const auto& s : stages_) copy->stages_.push_back(s->clone());
  return copy;
}

void Cascade::add(std::unique_ptr<AnalogElement> el) {
  stages_.push_back(std::move(el));
}

void Cascade::reset() {
  for (auto& s : stages_) s->reset();
}

void Cascade::process_block(const double* in, double* out, std::size_t n,
                            double dt_ps) {
  if (stages_.empty()) {
    if (out != in) std::copy(in, in + n, out);
    return;
  }
  stages_.front()->process_block(in, out, n, dt_ps);
  for (std::size_t s = 1; s < stages_.size(); ++s)
    stages_[s]->process_block(out, out, n, dt_ps);
}

}  // namespace gdelay::analog
