#include "analog/differential.h"

#include <algorithm>
#include <stdexcept>

#include "util/scratch.h"

namespace gdelay::analog {

DifferentialImbalance::DifferentialImbalance(
    const DifferentialImbalanceConfig& cfg)
    : cfg_(cfg),
      // Keep both delays non-negative: common base + half the skew on P.
      p_leg_(std::max(cfg.leg_skew_ps, 0.0)),
      n_leg_(std::max(-cfg.leg_skew_ps, 0.0)) {
  if (!(std::abs(cfg.gain_mismatch_frac) < 2.0))  // NaN fails too
    throw std::invalid_argument(
        "DifferentialImbalance: |gain mismatch| must be < 2");
}

void DifferentialImbalance::reset() {
  p_leg_.reset();
  n_leg_.reset();
}

void DifferentialImbalance::process_block(const double* in, double* out,
                                          std::size_t n, double dt_ps) {
  // Legs: P = +v/2, N = -v/2 (common mode drops out of the difference
  // except through the modeled offset).
  util::ScratchBuffer p(n), m(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = in[i] / 2.0;
  for (std::size_t i = 0; i < n; ++i) m[i] = -in[i] / 2.0;
  p_leg_.process_block(p.data(), p.data(), n, dt_ps);
  n_leg_.process_block(m.data(), m.data(), n, dt_ps);
  const double gp = 1.0 + cfg_.gain_mismatch_frac / 2.0;
  const double gn = 1.0 - cfg_.gain_mismatch_frac / 2.0;
  for (std::size_t i = 0; i < n; ++i)
    out[i] = gp * p[i] - gn * m[i] + cfg_.offset_v;
}

}  // namespace gdelay::analog
