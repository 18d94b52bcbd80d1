#include "core/fine_delay.h"

#include <algorithm>
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
  using VGA = analog::VariableGainBuffer;
  if (n == 0) return;
  // A(Vctrl) once per sample: every stage of a line is built from
  // cfg.stage, so stage 0's map is every stage's.
  util::ScratchBuffer amp(vctrl != nullptr ? n * w : 0);
  if (vctrl != nullptr) {
    for (std::size_t s = 0; s < w; ++s) {
      const VGA& stage0 = f[s]->stages_[0];
      for (std::size_t i = 0; i < n; ++i)
        amp[i * w + s] = stage0.amplitude_for(vctrl[i * w + s]);
    }
  }
  const double* a = vctrl != nullptr ? amp.data() : nullptr;

  // The stages run as a wavefront over sub-blocks of `len` samples (the
  // last may be shorter): at step t, stage k runs sub-block t - k, and
  // every (line, stage) pair of a step is one lane of one VGA pass. The
  // kernels step a group of four streams per time index, so a solo line
  // keeps four recursion chains in flight instead of one. Four lines or
  // more fill those groups by themselves, and one stage has nothing to
  // overlap: there the block is one sub-block and the stages run one
  // after another over it. Short sub-blocks shorten the fill and drain
  // steps, where fewer stages run, but each step pays one VGA pass's
  // set-up; 64 samples measured fastest. Stage k writes its sub-block of
  // `out`, where stage k + 1 reads it one step later: a sub-block is under
  // one stage per step, so `out` is the only carry, and stage 0 reads `in`
  // only at the sub-block it writes (in == out stays allowed). Each stage
  // sees its samples in order, so by the lane contract no byte depends on
  // this schedule.
  const std::size_t stages = f[0]->stages_.size();
  constexpr std::size_t kChains = 4, kSubBlock = 64;
  const std::size_t len =
      stages == 1 || w >= kChains ? n : std::min(n, kSubBlock);
  const std::size_t subs = (n + len - 1) / len;
  // Stages [k0, k1] of every line at step t; their sub-blocks hold `m`
  // samples each.
  const auto run = [&](std::size_t t, std::size_t k0, std::size_t k1,
                       std::size_t m) {
    const std::size_t lanes = (k1 - k0 + 1) * w;
    const auto at = [&](std::size_t k) { return (t - k) * len * w; };
    analog::LaneArray<VGA*> vga(lanes, [&](std::size_t l) {
      return &f[l % w]->stages_[k0 + l / w];
    });
    if (k0 == k1) {  // one stage: its sub-block is already a lane block
      VGA::process_lanes(vga.data(), w, (k0 == 0 ? in : out) + at(k0),
                         a != nullptr ? a + at(k0) : nullptr, out + at(k0),
                         m, dt_ps);
      return;
    }
    util::ScratchBuffer x(m * lanes);
    util::ScratchBuffer xa(a != nullptr ? m * lanes : 0);
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t k = k0 + l / w, o = at(k) + l % w;
      const double* src = (k == 0 ? in : out) + o;
      for (std::size_t i = 0; i < m; ++i) x[i * lanes + l] = src[i * w];
      if (a != nullptr)
        for (std::size_t i = 0; i < m; ++i) xa[i * lanes + l] = a[o + i * w];
    }
    VGA::process_lanes(vga.data(), lanes, x.data(),
                       a != nullptr ? xa.data() : nullptr, x.data(), m, dt_ps);
    for (std::size_t l = 0; l < lanes; ++l) {
      double* dst = out + at(k0 + l / w) + l % w;
      for (std::size_t i = 0; i < m; ++i) dst[i * w] = x[i * lanes + l];
    }
  };
  for (std::size_t t = 0; t + 1 < subs + stages; ++t) {
    const std::size_t k0 = t + 1 > subs ? t + 1 - subs : 0;
    const std::size_t k1 = std::min(t, stages - 1);
    // Only the last sub-block can be short, and the lowest stage of the
    // step is the one that reaches it.
    const std::size_t m0 = std::min(len, n - (t - k0) * len);
    if (m0 == len) {
      run(t, k0, k1, len);
    } else {
      run(t, k0, k0, m0);
      if (k0 < k1) run(t, k0 + 1, k1, len);
    }
  }
  analog::LimitingBuffer::process_lanes(
      analog::parts(f, w, &FineDelayLine::out_).data(), w, out, out, n,
      dt_ps);
  if (vctrl == nullptr) return;
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
