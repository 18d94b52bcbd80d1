// Tests for the sampled-waveform container.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "signal/waveform.h"

using gdelay::sig::Waveform;

TEST(Waveform, ConstructionAndAccessors) {
  Waveform w(10.0, 0.5, 5);
  EXPECT_EQ(w.size(), 5u);
  EXPECT_DOUBLE_EQ(w.t0_ps(), 10.0);
  EXPECT_DOUBLE_EQ(w.dt_ps(), 0.5);
  EXPECT_DOUBLE_EQ(w.time_at(0), 10.0);
  EXPECT_DOUBLE_EQ(w.time_at(4), 12.0);
  EXPECT_DOUBLE_EQ(w.t_end_ps(), 12.0);
  EXPECT_DOUBLE_EQ(w.duration_ps(), 2.0);
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_DOUBLE_EQ(w[i], 0.0);
}

TEST(Waveform, RejectsBadDt) {
  EXPECT_THROW(Waveform(0.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Waveform(0.0, -1.0, 4), std::invalid_argument);
  EXPECT_THROW(Waveform(0.0, -1.0, std::vector<double>(4)),
               std::invalid_argument);
}

TEST(Waveform, RejectsNonFiniteDt) {
  // NaN passes a `dt <= 0` test; both constructors must refuse it.
  for (double dt : {std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(Waveform(0.0, dt, 4), std::invalid_argument);
    EXPECT_THROW(Waveform(0.0, dt, std::vector<double>(4)),
                 std::invalid_argument);
  }
}

TEST(Waveform, FromFunction) {
  const auto w = Waveform::from_function(0.0, 1.0, 11,
                                         [](double t) { return 2.0 * t; });
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[10], 20.0);
}

TEST(Waveform, ValueAtInterpolates) {
  Waveform w(0.0, 1.0, {0.0, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(w.value_at(0.5), 5.0);
  EXPECT_DOUBLE_EQ(w.value_at(1.25), 12.5);
}

TEST(Waveform, ValueAtClampsOutside) {
  Waveform w(0.0, 1.0, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(w.value_at(-5.0), 3.0);
  EXPECT_DOUBLE_EQ(w.value_at(99.0), 4.0);
}

TEST(Waveform, MinMaxPp) {
  Waveform w(0.0, 1.0, {-0.4, 0.1, 0.4, -0.2});
  EXPECT_DOUBLE_EQ(w.min_value(), -0.4);
  EXPECT_DOUBLE_EQ(w.max_value(), 0.4);
  EXPECT_DOUBLE_EQ(w.peak_to_peak(), 0.8);
}

TEST(Waveform, ScaleInPlace) {
  Waveform w(0.0, 1.0, {1.0, 2.0});
  w.scale(2.0, 0.5);
  EXPECT_DOUBLE_EQ(w[0], 2.5);
  EXPECT_DOUBLE_EQ(w[1], 4.5);
}

TEST(Waveform, ShiftedRelabelsTime) {
  Waveform w(100.0, 1.0, {1.0, 2.0});
  const auto s = w.shifted(25.0);
  EXPECT_DOUBLE_EQ(s.t0_ps(), 125.0);
  EXPECT_DOUBLE_EQ(s[0], 1.0);  // samples untouched
  EXPECT_DOUBLE_EQ(w.t0_ps(), 100.0);
}

TEST(Waveform, Slice) {
  const auto w = Waveform::from_function(0.0, 1.0, 10,
                                         [](double t) { return t; });
  const auto s = w.slice(2.0, 5.0);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.t0_ps(), 2.0);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_DOUBLE_EQ(s[3], 5.0);
}

TEST(Waveform, SliceOutOfRangeClamps) {
  Waveform w(0.0, 1.0, {1.0, 2.0, 3.0});
  const auto s = w.slice(-10.0, 10.0);
  EXPECT_EQ(s.size(), 3u);
}

TEST(Waveform, EmptyBehaviour) {
  Waveform w;
  EXPECT_TRUE(w.empty());
  EXPECT_DOUBLE_EQ(w.value_at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.peak_to_peak(), 0.0);
  EXPECT_DOUBLE_EQ(w.duration_ps(), 0.0);
}
