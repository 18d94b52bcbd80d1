#include "analog/tline.h"

#include "util/units.h"

namespace gdelay::analog {

TransmissionLine::TransmissionLine(const TransmissionLineConfig& cfg)
    : cfg_(cfg),
      delay_(cfg.delay_ps),
      loss_factor_(util::db_loss_to_factor(cfg.loss_db)),
      has_pole_(cfg.dispersion_f3db_ghz > 0.0),
      pole_(has_pole_ ? cfg.dispersion_f3db_ghz : 1.0) {}

void TransmissionLine::reset() {
  delay_.reset();
  pole_.reset();
}

void TransmissionLine::process_lanes(TransmissionLine* const* t,
                                     std::size_t w, const double* in,
                                     double* out, std::size_t n,
                                     double dt_ps) {
  per_stream(in, out, n, w, [&](std::size_t s, const double* ci, double* co) {
    t[s]->delay_.process_block(ci, co, n, dt_ps);
    const double loss = t[s]->loss_factor_;
    for (std::size_t i = 0; i < n; ++i) co[i] *= loss;
  });
  std::size_t poles = 0;
  for (std::size_t s = 0; s < w; ++s) poles += t[s]->has_pole_;
  if (poles == w) {
    SinglePoleFilter::process_lanes(
        parts(t, w, &TransmissionLine::pole_).data(), w, out, out, n, dt_ps);
  } else if (poles > 0) {
    // Mixed dispersion across streams (unusual configs): each pole alone.
    per_stream(out, out, n, w, [&](std::size_t s, const double* ci,
                                   double* co) {
      if (t[s]->has_pole_) t[s]->pole_.process_block(ci, co, n, dt_ps);
    });
  }
}

double trace_loss_db(double delay_ps, double db_per_100ps) {
  return delay_ps / 100.0 * db_per_100ps;
}

}  // namespace gdelay::analog
