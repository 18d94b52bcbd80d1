#include "core/cal_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace gdelay::core {

std::string calibration_to_text(const ChannelCalibration& cal) {
  std::ostringstream os;
  os.precision(17);
  os << "gdelay_calibration 1\n";
  os << "base_latency_ps " << cal.base_latency_ps << "\n";
  os << "tap_offsets_ps " << cal.tap_offset_ps[0] << " "
     << cal.tap_offset_ps[1] << " " << cal.tap_offset_ps[2] << " "
     << cal.tap_offset_ps[3] << "\n";
  os << "dac_bits " << cal.dac.bits() << "\n";
  os << "dac_vref " << cal.dac.vref() << "\n";
  os << "curve_points " << cal.fine_curve.size() << "\n";
  for (std::size_t i = 0; i < cal.fine_curve.size(); ++i)
    os << "point " << cal.fine_curve.xs()[i] << " "
       << cal.fine_curve.ys()[i] << "\n";
  return os.str();
}

ChannelCalibration calibration_from_text(const std::string& text) {
  std::istringstream is(text);
  std::string key;
  if (!(is >> key) || key != "gdelay_calibration")
    throw std::runtime_error("calibration_from_text: bad magic");
  int version = 0;
  if (!(is >> version) || version != 1)
    throw std::runtime_error("calibration_from_text: unsupported version");

  ChannelCalibration cal;
  bool have_latency = false, have_taps = false;
  int dac_bits = 12;
  double dac_vref = 1.5;
  std::size_t n_points = 0;
  std::vector<double> xs, ys;

  while (is >> key) {
    if (key == "base_latency_ps") {
      if (!(is >> cal.base_latency_ps))
        throw std::runtime_error("calibration_from_text: bad latency");
      have_latency = true;
    } else if (key == "tap_offsets_ps") {
      for (auto& t : cal.tap_offset_ps)
        if (!(is >> t))
          throw std::runtime_error("calibration_from_text: bad taps");
      have_taps = true;
    } else if (key == "dac_bits") {
      if (!(is >> dac_bits))
        throw std::runtime_error("calibration_from_text: bad dac_bits");
    } else if (key == "dac_vref") {
      if (!(is >> dac_vref))
        throw std::runtime_error("calibration_from_text: bad dac_vref");
    } else if (key == "curve_points") {
      if (!(is >> n_points) || n_points < 2)
        throw std::runtime_error("calibration_from_text: bad point count");
    } else if (key == "point") {
      double x = 0.0, y = 0.0;
      if (!(is >> x >> y))
        throw std::runtime_error("calibration_from_text: bad point");
      xs.push_back(x);
      ys.push_back(y);
    } else {
      throw std::runtime_error("calibration_from_text: unknown key '" +
                               key + "'");
    }
  }
  if (!have_latency || !have_taps)
    throw std::runtime_error("calibration_from_text: missing fields");
  if (xs.size() != n_points)
    throw std::runtime_error("calibration_from_text: point count mismatch");
  // Dac and Curve reject bad fields with std::invalid_argument, naming
  // the field; here that is malformed text.
  try {
    cal.dac = Dac(dac_bits, dac_vref);
    cal.fine_curve = util::Curve(std::move(xs), std::move(ys));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("calibration_from_text: ") +
                             e.what());
  }
  return cal;
}

void save_calibration(const std::string& path,
                      const ChannelCalibration& cal) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("save_calibration: cannot open " + path);
  f << calibration_to_text(cal);
  if (!f) throw std::runtime_error("save_calibration: write failed");
}

ChannelCalibration load_calibration(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("load_calibration: cannot open " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return calibration_from_text(os.str());
}

}  // namespace gdelay::core
