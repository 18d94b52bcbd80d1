// Calibration persistence round-trip: a full set of real (measured)
// calibration curves must survive serialize -> deserialize with byte
// identity in every field, so a stored table plans exactly as the freshly
// swept one did. Malformed text is rejected with std::runtime_error.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/board.h"
#include "core/cal_io.h"
#include "core/calibration.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace gd = gdelay;
namespace core = gd::core;
namespace sig = gd::sig;

namespace {

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bit_identical(const core::ChannelCalibration& a,
                          const core::ChannelCalibration& b) {
  ASSERT_EQ(a.fine_curve.size(), b.fine_curve.size());
  for (std::size_t i = 0; i < a.fine_curve.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(a.fine_curve.xs()[i], b.fine_curve.xs()[i]))
        << "x[" << i << "]";
    EXPECT_TRUE(bitwise_equal(a.fine_curve.ys()[i], b.fine_curve.ys()[i]))
        << "y[" << i << "]";
  }
  for (std::size_t t = 0; t < a.tap_offset_ps.size(); ++t)
    EXPECT_TRUE(bitwise_equal(a.tap_offset_ps[t], b.tap_offset_ps[t]))
        << "tap " << t;
  EXPECT_TRUE(bitwise_equal(a.base_latency_ps, b.base_latency_ps));
  EXPECT_EQ(a.dac.bits(), b.dac.bits());
  EXPECT_TRUE(bitwise_equal(a.dac.vref(), b.dac.vref()));
}

}  // namespace

TEST(CalIo, FullCurveSetRoundTripsByteIdentical) {
  // Calibrate a real 2-channel board — curves with measured (irrational)
  // doubles, not hand-picked values — and round-trip every channel.
  core::DelayBoardConfig bc;
  bc.n_channels = 2;
  core::DelayBoard board(bc, gd::util::Rng(99));
  sig::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto stim = sig::synthesize_nrz(sig::prbs(7, 24), sc);
  core::DelayCalibrator::Options opt;
  opt.n_vctrl_points = 5;
  const std::vector<core::ChannelCalibration>& cals =
      board.calibrate(stim.wf, opt);
  ASSERT_EQ(cals.size(), 2u);

  for (const core::ChannelCalibration& cal : cals) {
    const std::string text = core::calibration_to_text(cal);
    const core::ChannelCalibration back = core::calibration_from_text(text);
    expect_bit_identical(cal, back);
    // And the re-serialization is textually identical: the format is a
    // fixed point after one round trip.
    EXPECT_EQ(core::calibration_to_text(back), text);
  }
}

TEST(CalIo, FileRoundTripMatchesInMemory) {
  core::ChannelCalibration cal;
  cal.fine_curve = gd::util::Curve{{0.0, 0.7500000000000001, 1.5},
                                   {0.0, 10.123456789012345, 19.99999999999}};
  cal.tap_offset_ps = {0.0, 35.00000000001, 69.9999999999, 104.5};
  cal.base_latency_ps = 612.3456789012345;

  std::string path = ::testing::TempDir() + "/gdelay_cal_roundtrip.txt";
  core::save_calibration(path, cal);
  const core::ChannelCalibration back = core::load_calibration(path);
  expect_bit_identical(cal, back);
  std::remove(path.c_str());
}

TEST(CalIo, PlannedSettingsSurviveTheRoundTrip) {
  // The operational consequence of byte identity: plan() output (tap,
  // DAC code, Vctrl) is bit-equal before and after persistence.
  core::DelayBoardConfig bc;
  bc.n_channels = 1;
  core::DelayBoard board(bc, gd::util::Rng(5));
  sig::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto stim = sig::synthesize_nrz(sig::prbs(7, 24), sc);
  core::DelayCalibrator::Options opt;
  opt.n_vctrl_points = 3;
  const core::ChannelCalibration& cal = board.calibrate(stim.wf, opt)[0];
  const core::ChannelCalibration back =
      core::calibration_from_text(core::calibration_to_text(cal));
  for (double target : {0.0, 17.3, 55.5, 120.0}) {
    const core::DelaySetting a = cal.plan(target);
    const core::DelaySetting b = back.plan(target);
    EXPECT_EQ(a.tap, b.tap);
    EXPECT_EQ(a.dac_code, b.dac_code);
    EXPECT_TRUE(bitwise_equal(a.vctrl_v, b.vctrl_v));
    EXPECT_TRUE(bitwise_equal(a.predicted_delay_ps, b.predicted_delay_ps));
  }
}

TEST(CalIo, HugeClaimedPointCountIsRejectedNotAllocated) {
  // The claimed count is only checked against the points actually read;
  // it must never size an allocation up front.
  const std::string text =
      "gdelay_calibration 1\n"
      "base_latency_ps 600\n"
      "tap_offsets_ps 0 35 70 105\n"
      "curve_points 1000000000000000000\n"
      "point 0 0\n"
      "point 1.5 20\n";
  EXPECT_THROW(core::calibration_from_text(text), std::runtime_error);
}

TEST(CalIo, BadDacFieldIsMalformedText) {
  // The Dac constructor's std::invalid_argument must not leak out of the
  // parser: a bad dac_bits or dac_vref is malformed text like any other
  // bad field, and the message names the field.
  const std::string head =
      "gdelay_calibration 1\n"
      "base_latency_ps 600\n"
      "tap_offsets_ps 0 35 70 105\n"
      "curve_points 2\n"
      "point 0 0\n"
      "point 1.5 20\n";
  const std::pair<const char*, const char*> bad[] = {
      {"dac_bits 99\n", "bits"},
      {"dac_bits 2\n", "bits"},
      {"dac_vref -1\n", "vref"},
      {"dac_vref 0\n", "vref"}};
  for (const auto& [line, field] : bad) {
    try {
      (void)core::calibration_from_text(head + line);
      ADD_FAILURE() << "accepted " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << line << " leaked a non-runtime_error: " << e.what();
    }
  }
  // The same head with a valid DAC parses.
  EXPECT_EQ(core::calibration_from_text(head + "dac_bits 10\n").dac.bits(), 10);
}

TEST(CalIoFuzz, MutatedTextThrowsOrRoundTrips) {
  // Seeded mutants of a calibration's text: byte flips; dropped,
  // duplicated and truncated lines; and the counts, dac_bits and dac_vref
  // overwritten with huge, negative, fractional and nan/inf spellings.
  // Each must throw std::runtime_error or parse into a calibration whose
  // text is a fixed point of the format: it parses back to the same text.
  core::ChannelCalibration cal;
  cal.fine_curve = gd::util::Curve{{0.0, 0.375, 0.7500000000000001, 1.5},
                                   {0.0, 4.25, 10.123456789012345, 20.5}};
  cal.tap_offset_ps = {0.0, 35.00000000001, 69.9999999999, 104.5};
  cal.base_latency_ps = 612.3456789012345;
  const std::string text = core::calibration_to_text(cal);
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t end = text.find('\n', at) + 1;
    lines.push_back(text.substr(at, end - at));
    at = end;
  }
  const auto join = [](const std::vector<std::string>& ls) {
    std::string out;
    for (const auto& l : ls) out += l;
    return out;
  };

  std::size_t parsed = 0, rejected = 0;
  const auto check = [&](const std::string& mutant) {
    try {
      const std::string once =
          core::calibration_to_text(core::calibration_from_text(mutant));
      EXPECT_EQ(core::calibration_to_text(core::calibration_from_text(once)),
                once)
          << mutant;
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << e.what() << " escaped for:\n" << mutant;
    }
  };

  gd::util::Rng rng(0xca11b0);
  constexpr int kMutants = 1000;
  for (int i = 0; i < kMutants; ++i) {  // byte flips
    std::string m = text;
    const std::uint64_t flips = 1 + rng.below(3);
    for (std::uint64_t f = 0; f < flips; ++f)
      m[rng.below(m.size())] ^= static_cast<char>(1 + rng.below(255));
    check(m);
  }
  for (int i = 0; i < kMutants; ++i) {  // line drops, duplicates, cuts
    std::vector<std::string> ls = lines;
    const std::size_t at = rng.below(ls.size());
    switch (rng.below(3)) {
      case 0:
        ls.erase(ls.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 1: {
        const std::string dup = ls[at];
        ls.insert(ls.begin() + static_cast<std::ptrdiff_t>(rng.below(ls.size())),
                  dup);
        break;
      }
      default:
        ls[at].resize(rng.below(ls[at].size()));
        break;
    }
    check(join(ls));
  }
  // Numeric overwrites of the fields whose values the parser converts.
  const std::string fields[] = {"curve_points", "dac_bits", "dac_vref"};
  const std::string values[] = {
      "0", "1", "2", "3", "4", "5", "20", "21", "-1", "-4", "-0", "4.5",
      "1e3", "1e308", "1e999", "-1e999", "1e-320", "2147483648",
      "18446744073709551615", "18446744073709551616",
      "99999999999999999999999", "nan", "NaN", "-nan", "inf", "-inf",
      "infinity", "0x10", "+7", ""};
  for (const std::string& field : fields) {
    for (const std::string& v : values) {
      std::vector<std::string> ls = lines;
      for (auto& l : ls)
        if (l.rfind(field + " ", 0) == 0) l = field + " " + v + "\n";
      check(join(ls));
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}
