#include "measure/freq_response.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.h"
#include "util/fastmath.h"

namespace gdelay::meas {

std::vector<FreqPoint> measure_frequency_response(
    analog::AnalogElement& element, const std::vector<double>& freqs_ghz,
    const FreqResponseOptions& opt) {
  if (freqs_ghz.empty())
    throw std::invalid_argument("frequency_response: no frequencies");
  for (std::size_t i = 1; i < freqs_ghz.size(); ++i)
    if (freqs_ghz[i] <= freqs_ghz[i - 1])
      throw std::invalid_argument("frequency_response: freqs must ascend");
  if (opt.amplitude_v <= 0.0 || opt.dt_ps <= 0.0)
    throw std::invalid_argument("frequency_response: bad options");

  std::vector<FreqPoint> out;
  out.reserve(freqs_ghz.size());
  std::vector<double> sv(analog::kBlockSamples), cv(analog::kBlockSamples),
      y(analog::kBlockSamples);
  double prev_phase = 0.0;
  double prev_omega = 0.0;
  for (double f : freqs_ghz) {
    if (f <= 0.0)
      throw std::invalid_argument("frequency_response: f must be > 0");
    const double period_ps = 1000.0 / f;
    // Land exactly on whole cycles for leakage-free correlation.
    const auto samples_per_cycle =
        static_cast<std::size_t>(std::ceil(period_ps / opt.dt_ps));
    const double dt = period_ps / static_cast<double>(samples_per_cycle);
    const double omega = 2.0 * util::kPi / period_ps;  // rad per ps

    const double inv_spc = 1.0 / static_cast<double>(samples_per_cycle);

    element.reset();
    const std::size_t n_settle =
        samples_per_cycle * static_cast<std::size_t>(opt.settle_cycles);
    const std::size_t n_meas =
        samples_per_cycle * static_cast<std::size_t>(opt.measure_cycles);
    const std::size_t total = n_settle + n_meas;
    double i_acc = 0.0, q_acc = 0.0;
    for (std::size_t o = 0; o < total; o += analog::kBlockSamples) {
      const std::size_t n = std::min(analog::kBlockSamples, total - o);
      for (std::size_t j = 0; j < n; ++j) {
        // Phase expressed in turns, exact by construction (k mod cycle
        // over samples-per-cycle): the stimulus the element sees is
        // bit-identical on every platform, keeping measured responses
        // reproducible.
        const double turns =
            static_cast<double>((o + j) % samples_per_cycle) * inv_spc;
        util::det_sincos2pi(turns, sv[j], cv[j]);
        y[j] = opt.amplitude_v * sv[j];
      }
      element.process_block(y.data(), y.data(), n, dt);
      for (std::size_t j = o < n_settle ? n_settle - o : 0; j < n; ++j) {
        i_acc += y[j] * sv[j];
        q_acc += y[j] * cv[j];
      }
    }
    // For x = A sin(wt), out = G*A*sin(wt + phi):
    //   sum y*sin = G*A*N/2*cos(phi), sum y*cos = G*A*N/2*sin(phi).
    const double half_n = static_cast<double>(n_meas) / 2.0;
    const double re = i_acc / (opt.amplitude_v * half_n);
    const double im = q_acc / (opt.amplitude_v * half_n);

    FreqPoint p;
    p.f_ghz = f;
    // gdelay-audit: allow(R1) analysis-side gain/phase extraction; the
    // simulated signal path never consumes these values.
    p.gain = std::hypot(re, im);
    constexpr double kInvLn10 = 4.3429448190325182765e-1;  // 1/ln 10
    p.gain_db = 20.0 * util::det_log(std::max(p.gain, 1e-12)) * kInvLn10;
    // gdelay-audit: allow(R1) analysis-side phase extraction (see above).
    double phase = std::atan2(im, re);
    // Unwrap against the previous point assuming < pi of extra lag per
    // step (callers should sweep densely for long delay lines).
    if (!out.empty()) {
      while (phase - prev_phase > util::kPi) phase -= 2.0 * util::kPi;
      while (phase - prev_phase < -util::kPi) phase += 2.0 * util::kPi;
      const double omega_prev = prev_omega;
      p.group_delay_ps = -(phase - prev_phase) / (omega - omega_prev);
    }
    p.phase_rad = phase;
    prev_phase = phase;
    prev_omega = omega;
    out.push_back(p);
  }
  return out;
}

double f3db_from_response(const std::vector<FreqPoint>& response) {
  if (response.size() < 2) return 0.0;
  const double ref_db = response.front().gain_db;
  for (std::size_t i = 1; i < response.size(); ++i) {
    const double drop_prev = ref_db - response[i - 1].gain_db;
    const double drop = ref_db - response[i].gain_db;
    if (drop >= 3.0) {
      const double t = (3.0 - drop_prev) / (drop - drop_prev);
      return response[i - 1].f_ghz +
             t * (response[i].f_ghz - response[i - 1].f_ghz);
    }
  }
  return 0.0;
}

}  // namespace gdelay::meas
