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

void TransmissionLine::process_block(const double* in, double* out,
                                     std::size_t n, double dt_ps) {
  delay_.process_block(in, out, n, dt_ps);
  for (std::size_t i = 0; i < n; ++i) out[i] *= loss_factor_;
  if (has_pole_) pole_.process_block(out, out, n, dt_ps);
}

double trace_loss_db(double delay_ps, double db_per_100ps) {
  return delay_ps / 100.0 * db_per_100ps;
}

}  // namespace gdelay::analog
