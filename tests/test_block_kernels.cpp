// Partition invariance of the block-processing path.
//
// `process_block()` is each device's one implementation, and its output
// must not depend on how a sample stream is split into calls: for every
// element and composite, chunk size 1 (the n == 1 calls behind step())
// and any larger chunking must give the same doubles, the same RNG draw
// order and the same state afterwards. These tests drive a chunk-1 twin
// and a chunk-k twin (identically constructed, identically seeded)
// through the same stimulus, including mid-run dt changes and awkward
// chunk sizes, and compare raw bit patterns. Any tolerance here would
// defeat the point: the calibration tables, the streaming pipeline and
// the deterministic parallel sweeps all rely on it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "analog/buffer.h"
#include "analog/coupling.h"
#include "analog/differential.h"
#include "analog/element.h"
#include "analog/primitives.h"
#include "analog/tline.h"
#include "core/channel.h"
#include "core/coarse_delay.h"
#include "core/fine_delay.h"
#include "signal/waveform.h"
#include "util/fastmath.h"
#include "util/rng.h"
#include "util/units.h"

namespace ga = gdelay::analog;
namespace gc = gdelay::core;
namespace gs = gdelay::sig;
using gdelay::util::Rng;

namespace {

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// Edgy deterministic stimulus: two incommensurate tones plus a square
// wave, so limiters saturate, slew limiters hit their rails, and filters
// see both slow and fast content.
std::vector<double> stimulus(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    v[i] = 0.35 * std::sin(0.07 * t) + 0.15 * std::sin(0.011 * t + 0.5) +
           ((i / 37) % 2 ? 0.2 : -0.2);
  }
  return v;
}

struct Segment {
  std::size_t n;
  double dt;
};

// The dt schedule every element is checked against: a mid-run rate
// change in both directions, segment lengths with no common factor with
// any chunk size.
const std::vector<Segment> kSegments{{701, 0.25}, {613, 0.4}, {509, 0.25}};

// Chunkings compared against the chunk-1 reference; 1024 exceeds every
// segment, so it also covers one call per segment.
constexpr std::size_t kChunks[] = {7, 256, 1024};

// Drives `e` over `in` in chunks of `chunk` following the dt schedule.
template <typename E>
std::vector<double> run_segments(E& e, const std::vector<double>& in,
                                 std::size_t chunk) {
  std::vector<double> out(in.size(), -1.0);
  std::size_t off = 0;
  for (const auto& s : kSegments) {
    for (std::size_t o = 0; o < s.n; o += chunk)
      e.process_block(in.data() + off + o, out.data() + off + o,
                      std::min(chunk, s.n - o), s.dt);
    off += s.n;
  }
  return out;
}

// Drives `ref` at chunk 1 and `blk` at `chunk` over the same stimulus
// and dt schedule; every output must match bitwise.
template <typename E>
void expect_chunk_invariant(E& ref, E& blk, std::size_t chunk) {
  std::size_t total = 0;
  for (const auto& s : kSegments) total += s.n;
  const auto in = stimulus(total);
  const auto want = run_segments(ref, in, 1);
  const auto got = run_segments(blk, in, chunk);
  for (std::size_t i = 0; i < total; ++i)
    ASSERT_EQ(bits(want[i]), bits(got[i]))
        << "sample " << i << ": chunk 1=" << want[i] << " chunk " << chunk
        << "=" << got[i];
}

// Builds a fresh twin pair per chunk size (elements are stateful).
template <typename MakeFn>
void check_element(MakeFn make) {
  for (std::size_t chunk : kChunks) {
    auto ref = make();
    auto blk = make();
    expect_chunk_invariant(ref, blk, chunk);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Runs `e` over `in` one process_block(n == 1) call at a time.
template <typename E>
std::vector<double> run_chunk1(E& e, const std::vector<double>& in,
                               double dt) {
  std::vector<double> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    e.process_block(&in[i], &out[i], 1, dt);
  return out;
}

// A composite's process() (reset, then kBlockSamples chunks) against a
// reset twin copy run one sample at a time.
template <typename C>
void expect_process_matches_chunk1(const C& proto, std::size_t n) {
  C a = proto, b = proto;
  const auto sig = stimulus(n);
  a.reset();
  const auto want = run_chunk1(a, sig, 0.25);
  const auto out = b.process(gs::Waveform(0.0, 0.25, sig));
  ASSERT_EQ(out.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(bits(want[i]), bits(out[i])) << "sample " << i;
}

}  // namespace

TEST(BlockKernel, SinglePoleFilter) {
  check_element([] { return ga::SinglePoleFilter(6.5); });
}

TEST(BlockKernel, TanhLimiter) {
  check_element([] { return ga::TanhLimiter(3.0, 0.4); });
}

TEST(BlockKernel, GainStage) {
  check_element([] { return ga::GainStage(1.7); });
}

TEST(BlockKernel, Attenuator) {
  check_element([] { return ga::Attenuator(2.5); });
}

TEST(BlockKernel, SlewRateLimiter) {
  // All three regimes: pure slew, + linear settling, + conductance leak.
  check_element([] { return ga::SlewRateLimiter(0.004); });
  check_element([] { return ga::SlewRateLimiter(0.004, 20.0); });
  check_element([] { return ga::SlewRateLimiter(0.004, 20.0, 300.0); });
}

TEST(BlockKernel, AcCoupler) {
  check_element([] { return ga::AcCoupler(0.01); });
}

TEST(BlockKernel, NoiseAdder) {
  check_element([] { return ga::NoiseAdder(0.02, Rng(42)); });
}

TEST(BlockKernel, FractionalDelayElement) {
  check_element([] { return ga::FractionalDelay(13.3); });
}

TEST(BlockKernel, TransmissionLine) {
  check_element([] {
    ga::TransmissionLineConfig tl;
    tl.delay_ps = 33.0;
    tl.loss_db = 0.5;
    tl.dispersion_f3db_ghz = 28.0;
    return ga::TransmissionLine(tl);
  });
}

TEST(BlockKernel, DifferentialImbalance) {
  check_element([] {
    ga::DifferentialImbalanceConfig cfg;
    cfg.leg_skew_ps = 2.5;
    cfg.gain_mismatch_frac = 0.08;
    cfg.offset_v = 0.003;
    return ga::DifferentialImbalance(cfg);
  });
}

TEST(BlockKernel, VariableGainBuffer) {
  check_element([] {
    ga::VgaBufferConfig cfg;
    auto vga = ga::VariableGainBuffer(cfg, Rng(7));
    vga.set_vctrl(0.9);
    return vga;
  });
}

TEST(BlockKernel, VariableGainBufferVctrlInput) {
  // A constant Vctrl array at chunk 1 gives the bytes of holding that
  // Vctrl (nullptr) at chunk 256; a modulated block leaves its last Vctrl.
  const auto in = stimulus(3000);
  const std::vector<double> held(in.size(), 0.9);
  ga::VariableGainBuffer a(ga::VgaBufferConfig{}, Rng(7));
  a.set_vctrl(0.9);
  ga::VariableGainBuffer b = a;
  std::vector<double> want(in.size()), got(in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    a.process_block(&in[i], &held[i], &want[i], 1, 0.25);
  for (std::size_t o = 0; o < in.size(); o += 256)
    b.process_block(in.data() + o, nullptr, got.data() + o,
                    std::min<std::size_t>(256, in.size() - o), 0.25);
  for (std::size_t i = 0; i < in.size(); ++i)
    ASSERT_EQ(bits(want[i]), bits(got[i])) << "sample " << i;
  const double ramp[2] = {0.2, 1.1};
  b.process_block(in.data(), ramp, got.data(), 2, 0.25);
  EXPECT_EQ(b.vctrl(), 1.1);
}

TEST(BlockKernel, LimitingBuffer) {
  check_element([] {
    return ga::LimitingBuffer(ga::LimitingBufferConfig{}, Rng(11));
  });
}

TEST(BlockKernel, CascadeStageMajor) {
  // Stage-major reordering across stages with private RNGs: each noise
  // element must keep its own draw sequence even though the execution
  // order over (stage, sample) changes completely.
  auto make = [] {
    ga::Cascade c;
    c.emplace<ga::SinglePoleFilter>(8.0);
    c.emplace<ga::NoiseAdder>(0.015, Rng(101));
    c.emplace<ga::TanhLimiter>(2.0, 0.35);
    c.emplace<ga::NoiseAdder>(0.008, Rng(202));
    c.emplace<ga::SlewRateLimiter>(0.006, 15.0, 250.0);
    return c;
  };
  for (std::size_t chunk : kChunks) {
    auto ref = make();
    auto blk = make();
    expect_chunk_invariant(ref, blk, chunk);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BlockKernel, NoiseSourceBatchedDraws) {
  // NoiseSource has no signal input; check its dedicated block entry
  // point, including the dt change re-deriving the filter coefficients.
  ga::NoiseSource ref(0.012, 7.5, Rng(33));
  ga::NoiseSource blk(0.012, 7.5, Rng(33));
  for (std::size_t chunk : kChunks) {
    ref.reset();
    blk.reset();
    // Streams advance identically, so resetting y_ keeps the twins in
    // lockstep without rebuilding them.
    for (const auto& s : kSegments) {
      std::vector<double> want(s.n), got(s.n, -1.0);
      for (std::size_t i = 0; i < s.n; ++i) ref.process_block(&want[i], 1, s.dt);
      for (std::size_t o = 0; o < s.n; o += chunk)
        blk.process_block(got.data() + o, std::min(chunk, s.n - o), s.dt);
      for (std::size_t i = 0; i < s.n; ++i)
        ASSERT_EQ(bits(want[i]), bits(got[i])) << "sample " << i;
    }
  }
}

TEST(BlockKernel, FillGaussianMatchesSequentialDraws) {
  // Batch generation must reproduce the exact draw order, including the
  // Box-Muller second-deviate cache across call boundaries.
  Rng a(5), b(5);
  // Leave a cached second deviate pending in both.
  ASSERT_EQ(bits(a.gaussian(0.0, 1.0)), bits(b.gaussian(0.0, 1.0)));
  std::vector<double> want(257), got(257, -1.0);
  for (auto& w : want) w = a.gaussian(1.5, 2.0);
  // Split across two calls with an odd first length so the tail caching
  // path is exercised mid-sequence.
  b.fill_gaussian(got.data(), 101, 1.5, 2.0);
  b.fill_gaussian(got.data() + 101, 156, 1.5, 2.0);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(bits(want[i]), bits(got[i])) << "draw " << i;
  // And the streams stay aligned afterwards.
  EXPECT_EQ(bits(a.gaussian()), bits(b.gaussian()));
}

TEST(BlockKernel, InPlaceAliasingMatchesOutOfPlace) {
  // in == out is part of the contract; the scratch-buffer users
  // (NoiseAdder, DifferentialImbalance, composites) must not read
  // samples they already overwrote.
  auto make = [] { return ga::VariableGainBuffer(ga::VgaBufferConfig{}, Rng(9)); };
  const auto in = stimulus(3000);
  auto a = make();
  auto b = make();
  std::vector<double> sep(in.size(), -1.0), ali = in;
  a.process_block(in.data(), sep.data(), in.size(), 0.25);
  b.process_block(ali.data(), ali.data(), in.size(), 0.25);
  for (std::size_t i = 0; i < in.size(); ++i)
    ASSERT_EQ(bits(sep[i]), bits(ali[i])) << "sample " << i;
}

TEST(BlockKernel, FineDelayLineProcessMatchesStepPath) {
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(77));
  line.set_vctrl(0.9);
  expect_process_matches_chunk1(line, 5000);
}

TEST(BlockKernel, CoarseDelayBlockProcessMatchesStepPath) {
  gc::CoarseDelayBlock blk(gc::CoarseDelayConfig::prototype(), Rng(55));
  blk.select(2);
  expect_process_matches_chunk1(blk, 5000);
}

TEST(BlockKernel, VariableDelayChannelProcessMatchesStepPath) {
  gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(99));
  ch.select_tap(1);
  ch.set_vctrl(1.1);
  expect_process_matches_chunk1(ch, 6000);
}

TEST(BlockKernel, ChannelBlockPathLeavesStepStateConsistent) {
  // Mixing chunkings mid-stream on the same object must be seamless:
  // one big block for a prefix, then single samples for the rest,
  // against an all-chunk-1 reference.
  const auto cfg = gc::ChannelConfig::prototype();
  gc::VariableDelayChannel a(cfg, Rng(123)), b(cfg, Rng(123));
  const auto sig = stimulus(4000);
  const auto want = run_chunk1(a, sig, 0.25);
  std::vector<double> got(sig.size(), -1.0);
  b.process_block(sig.data(), got.data(), 2500, 0.25);
  for (std::size_t i = 2500; i < sig.size(); ++i)
    b.process_block(&sig[i], &got[i], 1, 0.25);
  for (std::size_t i = 0; i < sig.size(); ++i)
    ASSERT_EQ(bits(want[i]), bits(got[i])) << "sample " << i;
}

TEST(FractionalDelay, DtChangeResamplesHistory) {
  // Regression for the latent dt-change bug: the ring used to be
  // re-primed with the *current input*, teleporting the line's stored
  // waveform forward and collapsing the delay for one fill time. On a
  // ramp v(t) = t with delay D the output must track t - D straight
  // through a sample-rate change.
  const double delay = 10.0;
  ga::FractionalDelay line(delay);
  double t = 0.0;
  double out = 0.0;
  for (int i = 0; i < 200; ++i) {  // warm up well past the delay
    t += 0.5;
    out = line.step(t, 0.5);
  }
  EXPECT_NEAR(out, t - delay, 1e-9);
  // Switch dt mid-run; the very next outputs must continue the ramp.
  for (int i = 0; i < 4; ++i) {
    t += 0.25;
    out = line.step(t, 0.25);
    // Linear interpolation on a linear ramp is exact up to rounding;
    // the old behavior was off by ~delay (10 ps) here.
    ASSERT_NEAR(out, t - delay, 1e-6) << "step " << i << " after dt change";
  }
  // And again going coarser.
  for (int i = 0; i < 4; ++i) {
    t += 1.0;
    out = line.step(t, 1.0);
    ASSERT_NEAR(out, t - delay, 1e-6) << "step " << i << " after 2nd change";
  }
}

TEST(FractionalDelay, DtChangePreservesStoredWaveform) {
  // A sine, not just a ramp: resampling the history onto the new grid
  // keeps the delayed waveform continuous (small interpolation error
  // only), where re-priming produced an O(amplitude) glitch.
  const double delay = 8.0;
  ga::FractionalDelay line(delay);
  auto v = [](double t) { return std::sin(0.35 * t); };
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    t += 0.25;
    (void)line.step(v(t), 0.25);
  }
  double worst = 0.0;
  for (int i = 0; i < 40; ++i) {
    t += 0.1;
    const double out = line.step(v(t), 0.1);
    worst = std::max(worst, std::abs(out - v(t - delay)));
  }
  // Linear-interpolation error bound ~ (w*dt)^2/8 ~ 1e-3 at these rates;
  // the old re-priming bug produced errors ~ 0.9 (full amplitude).
  EXPECT_LT(worst, 5e-3);
}

// ---------------------------------------------------------------------------
// Deterministic math kernels (util/fastmath.h). Both execution paths
// call these, so byte-identity above doesn't exercise their accuracy —
// these tests pin the kernels to libm within tight bounds and check the
// structural properties (symmetry, exact saturation, Pythagorean
// identity) the waveform models rely on.
// ---------------------------------------------------------------------------

TEST(DetMath, TanhMatchesLibmAndIsOdd) {
  double worst = 0.0;
  for (int i = -4000; i <= 4000; ++i) {
    const double x = 0.01 * static_cast<double>(i);  // [-40, 40]
    const double got = gdelay::util::det_tanh(x);
    const double ref = std::tanh(x);
    const double denom = std::max(std::abs(ref), 1e-300);
    worst = std::max(worst, std::abs(got - ref) / denom);
    // Exact odd symmetry, bit for bit: det_tanh computes on |x| and
    // copies the sign back, so this must hold with no tolerance.
    ASSERT_EQ(bits(gdelay::util::det_tanh(-x)),
              bits(-gdelay::util::det_tanh(x)))
        << "x = " << x;
  }
  EXPECT_LT(worst, 1e-13);
  // Saturated region returns exactly +/-1 (tanh(20) rounds to 1.0 in
  // double precision already).
  EXPECT_EQ(gdelay::util::det_tanh(25.0), 1.0);
  EXPECT_EQ(gdelay::util::det_tanh(-25.0), -1.0);
  EXPECT_EQ(gdelay::util::det_tanh(1e300), 1.0);
  EXPECT_EQ(gdelay::util::det_tanh(0.0), 0.0);
}

TEST(DetMath, LogMatchesLibmOnUnitInterval) {
  // Box-Muller only evaluates det_log on (0, 1]; sweep that domain
  // including values straddling the internal sqrt(2)/2 mantissa split.
  double worst = 0.0;
  for (int i = 1; i <= 100000; ++i) {
    const double x = static_cast<double>(i) / 100000.0;
    const double got = gdelay::util::det_log(x);
    const double ref = std::log(x);
    const double denom = std::max(std::abs(ref), 1.0);
    worst = std::max(worst, std::abs(got - ref) / denom);
  }
  EXPECT_LT(worst, 1e-15);
  EXPECT_EQ(gdelay::util::det_log(1.0), 0.0);
  // Tiny arguments (deep negative logs) stay accurate: r = sqrt(-2 log u)
  // for the smallest uniform the RNG can produce.
  const double tiny = 0x1.0p-53;
  EXPECT_NEAR(gdelay::util::det_log(tiny), std::log(tiny),
              1e-13 * std::abs(std::log(tiny)));
}

TEST(DetMath, SinCos2PiAccuracyAndIdentities) {
  // Quadrant boundaries are exact by construction (the reduction is
  // exact and the polynomials evaluate at theta = 0).
  double s, c;
  gdelay::util::det_sincos2pi(0.0, s, c);
  EXPECT_EQ(s, 0.0);
  EXPECT_EQ(c, 1.0);
  gdelay::util::det_sincos2pi(0.25, s, c);
  EXPECT_EQ(s, 1.0);
  EXPECT_EQ(c, 0.0);
  gdelay::util::det_sincos2pi(0.5, s, c);
  EXPECT_EQ(s, 0.0);
  EXPECT_EQ(c, -1.0);
  gdelay::util::det_sincos2pi(0.75, s, c);
  EXPECT_EQ(s, -1.0);
  EXPECT_EQ(c, 0.0);
  // Dense sweep of [0, 1): compare against libm evaluated at 2*pi*u.
  // Near sin's zeros the *reference* loses absolute accuracy to the
  // rounding of 2*pi*u (det_sincos2pi reduces exactly and does not),
  // so the comparison uses an absolute tolerance that covers the
  // reference's own ~|u|*ulp(2*pi) argument error.
  double worst_err = 0.0;
  double worst_pyth = 0.0;
  for (int i = 0; i < 99991; ++i) {  // prime stride: avoids lattice points
    const double u = static_cast<double>(i) / 99991.0;
    gdelay::util::det_sincos2pi(u, s, c);
    worst_err = std::max(worst_err, std::abs(s - std::sin(2.0 * gdelay::util::kPi * u)));
    worst_err = std::max(worst_err, std::abs(c - std::cos(2.0 * gdelay::util::kPi * u)));
    worst_pyth = std::max(worst_pyth, std::abs(s * s + c * c - 1.0));
  }
  EXPECT_LT(worst_err, 1e-14);
  EXPECT_LT(worst_pyth, 1e-14);
}
