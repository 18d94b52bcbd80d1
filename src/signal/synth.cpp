#include "signal/synth.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.h"
#include "util/fastmath.h"

namespace gdelay::sig {
namespace {

// 20-80 % rise time of A*tanh(t/tau) is 2*atanh(0.6)*tau ~= 1.3863*tau.
constexpr double kTanh2080 = 1.3862943611198906;

// Smooth unit step implemented with tanh; 0 below -W*tau, 1 above +W*tau.
constexpr double kStepWindow = 7.0;

double dj_offset(const SynthConfig& cfg, double t_ps) {
  if (cfg.dj_pp_ps <= 0.0) return 0.0;
  return 0.5 * cfg.dj_pp_ps *
         util::det_sin2pi(cfg.dj_freq_ghz * 1e-3 * t_ps);
}

double jittered(const SynthConfig& cfg, double t_ideal, double ui,
                util::Rng* rng) {
  double t = t_ideal + dj_offset(cfg, t_ideal);
  if (cfg.rj_sigma_ps > 0.0) {
    if (rng == nullptr)
      throw std::invalid_argument("synthesize: rj_sigma_ps > 0 needs an Rng");
    // Clamp so pathological draws cannot reorder adjacent edges.
    const double j = rng->gaussian(0.0, cfg.rj_sigma_ps);
    t += std::clamp(j, -0.4 * ui, 0.4 * ui);
  }
  return t;
}

// Every range check in this file is written so that NaN fails it.
void validate(const SynthConfig& cfg) {
  for (double v : {cfg.rate_gbps, cfg.amplitude_v, cfg.rise_time_ps,
                   cfg.dt_ps, cfg.lead_in_ps, cfg.tail_ps, cfg.rj_sigma_ps,
                   cfg.dj_pp_ps, cfg.dj_freq_ghz})
    if (!std::isfinite(v))
      throw std::invalid_argument("synth: every field must be finite");
  if (!(cfg.rate_gbps > 0.0)) throw std::invalid_argument("synth: rate must be > 0");
  if (!(cfg.dt_ps > 0.0)) throw std::invalid_argument("synth: dt must be > 0");
  if (!(cfg.rise_time_ps > 0.0))
    throw std::invalid_argument("synth: rise time must be > 0");
  if (!(cfg.amplitude_v > 0.0))
    throw std::invalid_argument("synth: amplitude must be > 0");
}

// Shared epilogue: grid size plus the sorted-transition invariant.
void seal_plan(SynthPlan& plan, const SynthConfig& cfg, std::size_t n_bits) {
  const double total = cfg.lead_in_ps +
                       static_cast<double>(n_bits) * plan.unit_interval_ps +
                       cfg.tail_ps;
  const double steps = std::ceil(total / cfg.dt_ps);
  // Finite fields can still ask for a grid no size_t holds.
  if (!(steps >= 0.0 && steps < 0x1p63))
    throw std::invalid_argument("synth: sample grid out of range");
  plan.t0_ps = 0.0;
  plan.dt_ps = cfg.dt_ps;
  plan.n = static_cast<std::size_t>(steps) + 1;
  std::sort(plan.transitions.begin(), plan.transitions.end(),
            [](const Transition& a, const Transition& b) {
              return a.t_ps < b.t_ps;
            });
}

}  // namespace

SynthPlan plan_nrz(const BitPattern& bits, const SynthConfig& cfg,
                   util::Rng* rng) {
  validate(cfg);
  if (bits.empty()) throw std::invalid_argument("synthesize_nrz: empty pattern");
  const double ui = cfg.unit_interval_ps();
  const double a = cfg.amplitude_v;

  SynthPlan plan;
  plan.unit_interval_ps = ui;
  plan.tau_ps = cfg.rise_time_ps / kTanh2080;
  plan.level0_v = bits.front() ? a : -a;
  const double first_edge = cfg.lead_in_ps;
  for (std::size_t i = 1; i < bits.size(); ++i) {
    if (bits[i] == bits[i - 1]) continue;
    const double t_ideal = first_edge + static_cast<double>(i - 1) * ui + ui;
    const double t = jittered(cfg, t_ideal, ui, rng);
    plan.ideal_edges_ps.push_back(t_ideal);
    plan.actual_edges_ps.push_back(t);
    plan.transitions.push_back({t, (bits[i] ? 2.0 : -2.0) * a});
  }
  seal_plan(plan, cfg, bits.size());
  return plan;
}

SynthPlan plan_clock(double f_ghz, std::size_t n_cycles,
                     const SynthConfig& cfg, util::Rng* rng) {
  if (!(f_ghz > 0.0))
    throw std::invalid_argument("synthesize_clock: f must be > 0");
  SynthConfig c = cfg;
  c.rate_gbps = 2.0 * f_ghz;  // one half-period per "bit"
  return plan_nrz(alternating(2 * n_cycles, 0), c, rng);
}

void TransitionRenderer::rewind() {
  i_ = 0;
  lo_ = 0;
  base_ = plan_->level0_v;
}

std::size_t TransitionRenderer::render(double* dst, std::size_t max_n) {
  const SynthPlan& p = *plan_;
  const auto& trs = p.transitions;
  const double w = kStepWindow * p.tau_ps;
  const std::size_t count = std::min(max_n, p.n - std::min(i_, p.n));
  for (std::size_t out = 0; out < count; ++out, ++i_) {
    const double t = p.t0_ps + p.dt_ps * static_cast<double>(i_);
    while (lo_ < trs.size() && trs[lo_].t_ps < t - w) {
      base_ += trs[lo_].delta_v;
      ++lo_;
    }
    double v = base_;
    for (std::size_t k = lo_; k < trs.size() && trs[k].t_ps <= t + w; ++k) {
      const double x = (t - trs[k].t_ps) / p.tau_ps;
      v += trs[k].delta_v * 0.5 * (1.0 + util::det_tanh(x));
    }
    dst[out] = v;
  }
  return count;
}

Waveform render(const SynthPlan& plan) {
  Waveform wf(plan.t0_ps, plan.dt_ps, plan.n);
  TransitionRenderer ren(plan);
  ren.render(wf.samples().data(), plan.n);
  return wf;
}

namespace {

// Materializing wrapper shared by the synthesize_* entry points.
SynthResult materialize(SynthPlan plan) {
  SynthResult res;
  res.unit_interval_ps = plan.unit_interval_ps;
  res.wf = render(plan);
  res.ideal_edges_ps = std::move(plan.ideal_edges_ps);
  res.actual_edges_ps = std::move(plan.actual_edges_ps);
  return res;
}

}  // namespace

SynthResult synthesize_nrz(const BitPattern& bits, const SynthConfig& cfg,
                           util::Rng* rng) {
  return materialize(plan_nrz(bits, cfg, rng));
}

SynthResult synthesize_clock(double f_ghz, std::size_t n_cycles,
                             const SynthConfig& cfg, util::Rng* rng) {
  return materialize(plan_clock(f_ghz, n_cycles, cfg, rng));
}

double rj_sigma_for_tj_pp(double tj_pp_ps, std::size_t n_edges) {
  if (tj_pp_ps <= 0.0) return 0.0;
  const double n = std::max<std::size_t>(n_edges, 8);
  return tj_pp_ps / (2.0 * std::sqrt(2.0 * util::det_log(static_cast<double>(n))));
}

}  // namespace gdelay::sig
