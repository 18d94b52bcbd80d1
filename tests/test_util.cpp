// Tests for util: units, RNG, curves, serde.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/curve.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/units.h"

namespace gu = gdelay::util;

TEST(Units, PeriodAndRate) {
  EXPECT_DOUBLE_EQ(gu::period_ps(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(gu::period_ps(6.4), 156.25);
  EXPECT_DOUBLE_EQ(gu::unit_interval_ps(6.4), 156.25);
  EXPECT_DOUBLE_EQ(gu::freq_ghz(156.25), 6.4);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(gu::mv(750.0), 0.75);
}

TEST(Units, DbLoss) {
  EXPECT_NEAR(gu::db_loss_to_factor(0.0), 1.0, 1e-12);
  EXPECT_NEAR(gu::db_loss_to_factor(6.0205999), 0.5, 1e-6);
  EXPECT_NEAR(gu::db_loss_to_factor(20.0), 0.1, 1e-12);
}

TEST(Units, GaussianPpConvention) {
  EXPECT_DOUBLE_EQ(gu::gaussian_pp_to_sigma(0.9), 0.15);
}

TEST(Rng, Deterministic) {
  gu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  gu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  gu::Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  gu::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, GaussianMoments) {
  gu::Rng r(123);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  gu::Rng r(5);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += r.gaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ForkIndependence) {
  gu::Rng parent(99);
  gu::Rng c1 = parent.fork(0);
  gu::Rng c2 = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (c1.next_u64() == c2.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange) {
  gu::Rng r(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Curve, RejectsBadInput) {
  EXPECT_THROW(gu::Curve({0.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(gu::Curve({0.0, 0.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(gu::Curve({0.0, 1.0}, {1.0}), std::invalid_argument);
}

TEST(Curve, LinearInterpolation) {
  gu::Curve c({0.0, 1.0, 2.0}, {0.0, 10.0, 40.0});
  EXPECT_DOUBLE_EQ(c(0.5), 5.0);
  EXPECT_DOUBLE_EQ(c(1.5), 25.0);
  EXPECT_DOUBLE_EQ(c(1.0), 10.0);
}

TEST(Curve, ExtrapolatesLinearly) {
  gu::Curve c({0.0, 1.0}, {0.0, 10.0});
  EXPECT_DOUBLE_EQ(c(2.0), 20.0);
  EXPECT_DOUBLE_EQ(c(-1.0), -10.0);
}

TEST(Curve, Monotonicity) {
  gu::Curve inc({0.0, 1.0, 2.0}, {0.0, 1.0, 3.0});
  EXPECT_TRUE(inc.is_monotonic_increasing());
  EXPECT_FALSE(inc.is_monotonic_decreasing());
  gu::Curve bump({0.0, 1.0, 2.0}, {0.0, 2.0, 1.0});
  EXPECT_FALSE(bump.is_monotonic_increasing());
  EXPECT_FALSE(bump.is_monotonic_decreasing());
}

TEST(Curve, InvertRoundTrip) {
  gu::Curve c({0.0, 0.5, 1.0, 1.5}, {0.0, 20.0, 45.0, 56.0});
  for (double y : {0.0, 5.0, 20.0, 33.0, 56.0}) {
    const double x = c.invert(y);
    EXPECT_NEAR(c(x), y, 1e-9);
  }
}

TEST(Curve, InvertClampsOutOfRange) {
  gu::Curve c({0.0, 1.0}, {0.0, 10.0});
  EXPECT_DOUBLE_EQ(c.invert(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(c.invert(99.0), 1.0);
}

TEST(Curve, InvertDecreasing) {
  gu::Curve c({0.0, 1.0, 2.0}, {10.0, 5.0, 0.0});
  EXPECT_NEAR(c.invert(7.5), 0.5, 1e-9);
  EXPECT_NEAR(c.invert(2.5), 1.5, 1e-9);
}

TEST(Curve, InvertNonMonotonicThrows) {
  gu::Curve c({0.0, 1.0, 2.0}, {0.0, 2.0, 1.0});
  EXPECT_THROW(c.invert(0.5), std::domain_error);
}

TEST(Curve, MidSlope) {
  gu::Curve c({0.0, 1.0, 2.0, 3.0, 4.0}, {0.0, 1.0, 3.0, 5.0, 6.0});
  // Central half covers the steep 2/unit segments.
  EXPECT_NEAR(c.mid_slope(0.5), 2.0, 1e-9);
}

TEST(Curve, YSpan) {
  gu::Curve c({0.0, 1.0, 2.0}, {5.0, -1.0, 7.0});
  EXPECT_DOUBLE_EQ(c.y_span(), 8.0);
}

TEST(Isotonic, AlreadyMonotone) {
  const std::vector<double> ys{0.0, 1.0, 2.0, 5.0};
  EXPECT_EQ(gu::isotonic_increasing(ys), ys);
}

TEST(Isotonic, PoolsViolators) {
  const auto out = gu::isotonic_increasing({1.0, 3.0, 2.0, 4.0});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 2.5);
  EXPECT_DOUBLE_EQ(out[2], 2.5);
  EXPECT_DOUBLE_EQ(out[3], 4.0);
  for (std::size_t i = 1; i < out.size(); ++i) EXPECT_GE(out[i], out[i - 1]);
}

TEST(Isotonic, PreservesMean) {
  const std::vector<double> ys{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  const auto out = gu::isotonic_increasing(ys);
  double a = 0.0, b = 0.0;
  for (std::size_t i = 0; i < ys.size(); ++i) {
    a += ys[i];
    b += out[i];
  }
  EXPECT_NEAR(a, b, 1e-9);
}

TEST(Isotonic, ConstantInput) {
  const auto out = gu::isotonic_increasing({2.0, 2.0, 2.0});
  for (double y : out) EXPECT_DOUBLE_EQ(y, 2.0);
}

TEST(CurveMonotonicized, CleansNoisyIncreasing) {
  // A monotone ramp with a small dip: monotonicized must be non-decreasing
  // and close to the original.
  gu::Curve c({0.0, 1.0, 2.0, 3.0, 4.0}, {0.0, 1.1, 0.9, 3.0, 4.0});
  const auto m = c.monotonicized();
  EXPECT_TRUE(m.is_monotonic_increasing());
  EXPECT_NO_THROW(m.invert(2.0));
  for (std::size_t i = 0; i < m.size(); ++i)
    EXPECT_NEAR(m.ys()[i], c.ys()[i], 0.2);
}

TEST(CurveMonotonicized, PicksDecreasingDirection) {
  gu::Curve c({0.0, 1.0, 2.0, 3.0}, {9.0, 6.1, 6.2, 1.0});
  const auto m = c.monotonicized();
  EXPECT_TRUE(m.is_monotonic_decreasing());
}

TEST(Csv, WritesColumns) {
  const auto path =
      (std::filesystem::temp_directory_path() / "gdelay_csv_test.csv")
          .string();
  gu::write_csv(path, {"x", "y"}, {{1.0, 2.0}, {10.0, 20.0}});
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), "x,y\n1,10\n2,20\n");
  std::filesystem::remove(path);
}

TEST(Csv, ValidatesInput) {
  EXPECT_THROW(gu::write_csv("/tmp/x.csv", {"a"}, {{1.0}, {2.0}}),
               std::invalid_argument);
  EXPECT_THROW(gu::write_csv("/tmp/x.csv", {"a", "b"}, {{1.0}, {2.0, 3.0}}),
               std::invalid_argument);
  EXPECT_THROW(gu::write_csv("/tmp/x.csv", {}, {}), std::invalid_argument);
  EXPECT_THROW(
      gu::write_csv_xy("/nonexistent/dir/x.csv", "a", {1.0}, "b", {2.0}),
      std::runtime_error);
}

TEST(Serde, VectorCountPastTheBufferIsATruncatedRead) {
  // 2^61 + 1 elements of 8 bytes: a count * 8 length check wraps to 8
  // and would pass; the reader must still report a truncated read. So
  // must a count one past the bytes left. The check runs before the
  // vector grows: its elements and its capacity are left as they were.
  for (const std::uint64_t count : {(std::uint64_t{1} << 61) + 1,
                                    std::uint64_t{2}}) {
    gu::ByteWriter w;
    w.u64(count);
    w.u64(std::bit_cast<std::uint64_t>(1.0));
    gu::ByteReader fr(w.bytes());
    std::vector<double> f = {7.0, -0.0};
    const std::size_t f_cap = f.capacity();
    EXPECT_THROW(fr.append_vec_f64(f), std::runtime_error) << count;
    EXPECT_EQ(f, (std::vector<double>{7.0, -0.0}));
    EXPECT_EQ(f.capacity(), f_cap);
    gu::ByteReader ur(w.bytes());
    std::vector<std::uint64_t> u = {5};
    const std::size_t u_cap = u.capacity();
    EXPECT_THROW(ur.append_vec_u64(u), std::runtime_error) << count;
    EXPECT_EQ(u, (std::vector<std::uint64_t>{5}));
    EXPECT_EQ(u.capacity(), u_cap);
  }
}

TEST(Serde, VectorsAreLittleEndianWordsBitForBit) {
  // Values whose bit patterns a byte-order, sign or NaN-quieting slip
  // would change: distinct bytes, all ones, -0.0, a negative NaN with a
  // payload, a denormal with distinct bytes. A leading u8 puts the
  // vectors at an odd offset.
  const std::vector<std::uint64_t> u = {0x0102030405060708ULL, ~0ULL, 0};
  const std::vector<double> f = {
      -0.0, std::bit_cast<double>(0xfff80000deadbeefULL),
      std::bit_cast<double>(0x000123456789abcdULL), 1.0};
  gu::ByteWriter w;
  w.u8(0xaa);
  w.vec_u64(u);
  w.vec_f64(f);
  w.vec_u64({});

  const auto bytes = [](std::initializer_list<unsigned> b) {
    std::string s;
    for (unsigned x : b) s.push_back(static_cast<char>(x));
    return s;
  };
  const std::string expect =
      bytes({0xaa}) +
      bytes({3, 0, 0, 0, 0, 0, 0, 0}) +  // u64 count
      bytes({8, 7, 6, 5, 4, 3, 2, 1}) +
      bytes({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) +
      bytes({0, 0, 0, 0, 0, 0, 0, 0}) +
      bytes({4, 0, 0, 0, 0, 0, 0, 0}) +  // f64 count
      bytes({0, 0, 0, 0, 0, 0, 0, 0x80}) +
      bytes({0xef, 0xbe, 0xad, 0xde, 0, 0, 0xf8, 0xff}) +
      bytes({0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0}) +
      bytes({0, 0, 0, 0, 0, 0, 0xf0, 0x3f}) +
      bytes({0, 0, 0, 0, 0, 0, 0, 0});  // empty vector
  EXPECT_EQ(w.bytes(), expect);

  // Decoded onto the ends of non-empty vectors, whose prefixes survive.
  gu::ByteReader r(expect);
  EXPECT_EQ(r.u8(), 0xaau);
  std::vector<std::uint64_t> ub = {42};
  r.append_vec_u64(ub);
  std::vector<std::uint64_t> ue = u;
  ue.insert(ue.begin(), 42);
  EXPECT_EQ(ub, ue);
  std::vector<double> back = {2.5};
  r.append_vec_f64(back);
  ASSERT_EQ(back.size(), 1 + f.size());
  EXPECT_EQ(back[0], 2.5);
  for (std::size_t i = 0; i < f.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[1 + i]),
              std::bit_cast<std::uint64_t>(f[i]))
        << i;
  r.append_vec_u64(ub);
  EXPECT_EQ(ub, ue);
  EXPECT_TRUE(r.at_end());
}

TEST(Serde, Xxh64KnownAnswers) {
  // Values from the reference xxHash library (0.8.1), seed 0, over the
  // bytes (i * 131 + 7) & 0xff. The lengths reach every path: the short
  // input (< 32) with each of the 8-, 4- and 1-byte tails, exactly one
  // and two stripes, stripes followed by each tail, and 1 MiB.
  const auto input = [](std::size_t n) {
    std::string s(n, '\0');
    for (std::size_t i = 0; i < n; ++i)
      s[i] = static_cast<char>((i * 131 + 7) & 0xff);
    return s;
  };
  const struct {
    std::size_t n;
    std::uint64_t h;
  } kat[] = {
      {0, 0xef46db3751d8e999ULL},        {1, 0xa96c7f0ce858bbb7ULL},
      {3, 0xbed43740ee6332bbULL},        {4, 0xfa212ae44b3bb23dULL},
      {7, 0x2744460dd675d2c0ULL},        {8, 0x994b676b71ce94ddULL},
      {12, 0xb92f588ce720786eULL},       {31, 0x6711d55e306b5d8fULL},
      {32, 0x07f7b8e3bc5d6e25ULL},       {33, 0x09f85eeb4e1cbe9fULL},
      {36, 0xe7ac625222f2b655ULL},       {63, 0xb7c9968c066cb6a5ULL},
      {64, 0x50d4159a0411632eULL},       {100, 0x9ddada11d3dc2d8fULL},
      {1 << 20, 0x1b13a8085220794bULL},
  };
  for (const auto& k : kat) {
    const std::string s = input(k.n);
    EXPECT_EQ(gu::xxh64(s.data(), s.size()), k.h) << k.n << " bytes";
  }
  EXPECT_EQ(gu::xxh64("abc", 3), 0x44bc2cf5ad770999ULL);
}
