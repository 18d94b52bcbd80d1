// The control DAC: "Vctrl will be provided using a 12-bit DAC, so
// sub-picosecond resolution will be achievable" (Section 2).
#pragma once

#include <cstdint>

namespace gdelay::core {

class Dac {
 public:
  /// The paper's part: 12 bits over the 1.5 V Vctrl range.
  Dac() : Dac(12, 1.5) {}
  /// `bits` in [4, 20]; `vref` is the full-scale output (code 2^bits - 1),
  /// finite and > 0.
  Dac(int bits, double vref);

  int bits() const { return bits_; }
  double vref() const { return vref_; }
  std::uint32_t max_code() const { return max_code_; }
  /// Output step per code.
  double lsb_v() const;

  /// Ideal output voltage for a code (clamped to the code range).
  double voltage(std::uint32_t code) const;

  /// Nearest code producing the requested voltage (clamped into range,
  /// +/-Inf included). Throws std::invalid_argument on NaN.
  std::uint32_t code_for(double v) const;

  /// Voltage after round-tripping through the quantizer.
  double quantize(double v) const { return voltage(code_for(v)); }

 private:
  int bits_;
  double vref_;
  std::uint32_t max_code_;
};

}  // namespace gdelay::core
