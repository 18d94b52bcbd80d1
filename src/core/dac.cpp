#include "core/dac.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace gdelay::core {

Dac::Dac(int bits, double vref) : bits_(bits), vref_(vref) {
  if (bits < 4 || bits > 20)
    throw std::invalid_argument("Dac: bits must be in [4, 20]");
  if (!(std::isfinite(vref) && vref > 0.0))
    throw std::invalid_argument("Dac: vref must be finite and > 0");
  max_code_ = (1u << bits_) - 1u;
}

double Dac::lsb_v() const { return vref_ / static_cast<double>(max_code_); }

double Dac::voltage(std::uint32_t code) const {
  code = std::min(code, max_code_);
  return static_cast<double>(code) * lsb_v();
}

std::uint32_t Dac::code_for(double v) const {
  if (std::isnan(v)) throw std::invalid_argument("Dac: code_for(NaN)");
  const double clamped = std::clamp(v, 0.0, vref_);
  const double code = std::round(clamped / lsb_v());
  return std::min(static_cast<std::uint32_t>(code), max_code_);
}

}  // namespace gdelay::core
