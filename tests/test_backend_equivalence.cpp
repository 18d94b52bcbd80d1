// Backend-equivalence suite: the pluggable compute backend's contract,
// enforced (see src/backend/backend.h and DESIGN.md "Compute backends").
//
// Four layers of checks:
//
//   1. Kernel pins. The elementwise kernels (scale, tanh_stage, exp,
//      sincos2pi, Box-Muller) must be BIT-EXACT against the scalar
//      det_* oracle on every backend — 0 ULP, over domain sweeps that
//      cover saturation boundaries, signed zero and vector tails — and
//      the serial recursions must match their reference steps at any
//      partition of the sample stream into calls.
//   2. Lane pins. Each width-generic kernel (tanh_stage, one_pole, slew,
//      vga_tail) over w interleaved streams against w solo (w == 1) runs
//      of the same table, at widths spanning sub-group, exact-group and
//      group-plus-tail (1, 3, 4, 9, 17), with call partitions that split
//      groups mid-phase, and with per-stream parameter divergence that
//      forces the AVX2 per-stream fallbacks.
//   3. Cross-backend agreement: elementwise elements bitwise, recursive
//      ones inside the documented one-pole scan envelope. (Per-device
//      partition and lane invariance under every backend is
//      tests/test_block_kernels.cpp.)
//   4. Threaded sweeps. Per backend, a parallel calibration run is
//      bit-identical at 1 and 4 threads (CI additionally re-runs the
//      whole suite under GDELAY_THREADS=4).
//
// AVX2 cases skip (not fail) on machines without AVX2+FMA, so the suite
// is portable; the CI simd job guarantees they actually run somewhere.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "analog/buffer.h"
#include "analog/coupling.h"
#include "analog/primitives.h"
#include "backend/backend.h"
#include "core/channel.h"
#include "core/calibration.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/fastmath.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ga = gdelay::analog;
namespace gb = gdelay::backend;
namespace gc = gdelay::core;
namespace gs = gdelay::sig;
namespace gu = gdelay::util;
using gdelay::util::Rng;

namespace {

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

bool avx2_usable() {
  return gb::avx2_kernels() != nullptr && gb::cpu_supports_avx2();
}

// Selects a backend for the scope and restores the previous one, so
// tests compose regardless of the GDELAY_BACKEND the suite ran under.
struct BackendSelect {
  std::string prev;
  explicit BackendSelect(const char* name) : prev(gb::active().name) {
    gb::select(name);
  }
  ~BackendSelect() { gb::select(prev.c_str()); }
};

// Partition sizes: scalar-tail-only, odd mid-group, exact multiples of
// the lane group, and larger-than-cache blocks.
constexpr std::size_t kChunks[] = {1, 7, 64, 1024, 4096};

std::vector<const gb::Kernels*> tables() {
  std::vector<const gb::Kernels*> t{&gb::scalar_kernels()};
  if (avx2_usable()) t.push_back(gb::avx2_kernels());
  return t;
}

// Solo (w == 1) calls of the width-generic kernels.
void tanh1(const gb::Kernels& k, const double* x, const double* add,
           double* out, std::size_t n, double gain, double ref, double post) {
  k.tanh_stage(x, add, out, n, 1, &gain, &ref, &post);
}

void one_pole1(const gb::Kernels& k, const double* x, double* out,
               std::size_t n, double alpha, gb::OnePoleState& st) {
  gb::OnePoleState* p = &st;
  k.one_pole(x, out, n, 1, &alpha, &p);
}

void slew1(const gb::Kernels& k, const double* x, double* out, std::size_t n,
           const gb::SlewCoeffs& c, gb::SlewState& st) {
  gb::SlewState* p = &st;
  k.slew(x, out, n, 1, &c, &p);
}

void vga_tail1(const gb::Kernels& k, const double* lim, const double* amp,
               double* out, std::size_t n, const gb::VgaTailCoeffs& c,
               gb::SlewState& sl, gb::VgaTailState& d) {
  gb::SlewState* slp = &sl;
  gb::VgaTailState* dp = &d;
  k.vga_tail(lim, amp, out, n, 1, &c, &slp, &dp);
}

// Stimulus with both smooth and switching content (limiters saturate,
// slew limiters rail) plus segment lengths coprime to every chunk size.
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

// Mid-run dt changes in both directions; lengths chosen so 4096-chunks
// still split every segment and 1-chunks cross group phases everywhere.
const std::vector<Segment> kSegments{{4099, 0.25}, {2048, 0.4}, {1021, 0.25}};

std::size_t total_samples() {
  std::size_t t = 0;
  for (const auto& s : kSegments) t += s.n;
  return t;
}

// Runs `e` through process_block() in `chunk`-sized calls.
template <typename E>
std::vector<double> run_block(E& e, std::size_t chunk) {
  const auto in = stimulus(total_samples());
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

// Cross-backend comparison of the block path (chunk 1024).
// `bit_identical` demands byte equality (purely elementwise elements);
// otherwise the documented scan envelope applies: an ABSOLUTE bound,
// because near the waveform's zero crossings an epsilon-of-amplitude
// divergence is a huge number of ULP of the (tiny) output value.
template <typename MakeFn>
void expect_cross_backend(MakeFn make, bool bit_identical, double max_abs) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 backend not usable here";
  std::vector<double> scalar_out, avx2_out;
  {
    BackendSelect sel("scalar");
    auto e = make();
    scalar_out = run_block(e, 1024);
  }
  {
    BackendSelect sel("avx2");
    auto e = make();
    avx2_out = run_block(e, 1024);
  }
  for (std::size_t i = 0; i < scalar_out.size(); ++i) {
    const double a = scalar_out[i], b = avx2_out[i];
    if (bits(a) == bits(b)) continue;
    ASSERT_FALSE(bit_identical)
        << "sample " << i << ": scalar=" << a << " avx2=" << b;
    ASSERT_LE(std::abs(a - b), max_abs)
        << "sample " << i << ": scalar=" << a << " avx2=" << b;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(BackendDispatch, ScalarTableIsAlwaysAvailableAndSelectable) {
  const gb::Kernels& s = gb::scalar_kernels();
  EXPECT_STREQ(s.name, "scalar");
  BackendSelect sel("scalar");
  EXPECT_STREQ(gb::active().name, "scalar");
  EXPECT_NE(gb::dispatch_reason(), nullptr);
}

TEST(BackendDispatch, UnknownNameThrowsAndLeavesSelectionIntact) {
  BackendSelect sel("scalar");
  EXPECT_THROW(gb::select("sse9"), std::invalid_argument);
  EXPECT_STREQ(gb::active().name, "scalar");
}

TEST(BackendDispatch, AutoPicksSomethingUsable) {
  BackendSelect sel("auto");
  const std::string name = gb::active().name;
  EXPECT_TRUE(name == "scalar" || name == "avx2") << name;
  if (avx2_usable()) {
    EXPECT_EQ(name, "avx2");
  }
}

TEST(BackendDispatch, Avx2SelectionMatchesProbes) {
  if (!avx2_usable()) {
    EXPECT_THROW(gb::select("avx2"), std::runtime_error);
    GTEST_SKIP() << "AVX2 backend not usable here";
  }
  BackendSelect sel("avx2");
  const gb::Kernels& k = gb::active();
  EXPECT_STREQ(k.name, "avx2");
}

// ---------------------------------------------------------------------------
// Kernel pins: elementwise kernels bit-exact on every backend
// ---------------------------------------------------------------------------

namespace {

// Domain sweep with saturation boundaries, signed zero, huge and tiny
// magnitudes, at a length (1027) that exercises vector body + tail.
std::vector<double> kernel_sweep() {
  std::vector<double> v;
  for (int i = -500; i <= 500; ++i) v.push_back(0.05 * i);  // [-25, 25]
  v.push_back(0.0);
  v.push_back(-0.0);
  v.push_back(1e-300);
  v.push_back(-1e-300);
  v.push_back(1e300);
  v.push_back(-1e300);
  v.push_back(708.0);
  v.push_back(-708.0);
  v.push_back(709.5);
  v.push_back(-709.5);
  while (v.size() < 1027) v.push_back(0.013 * static_cast<double>(v.size()));
  return v;
}

void pin_elementwise(const gb::Kernels& k) {
  const auto x = kernel_sweep();
  const std::size_t n = x.size();
  std::vector<double> out(n, -1.0);

  k.scale(x.data(), out.data(), n, 1.7);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(bits(out[i]), bits(1.7 * x[i])) << k.name << " scale " << i;

  tanh1(k, x.data(), nullptr, out.data(), n, 2.0, 0.4, 0.35);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(bits(out[i]), bits(0.35 * gu::det_tanh(2.0 * x[i] / 0.4)))
        << k.name << " tanh_stage " << i << " x=" << x[i];

  // The add-array variant (noise injection before the limiter).
  std::vector<double> add(n);
  for (std::size_t i = 0; i < n; ++i) add[i] = 0.01 * std::sin(0.3 * i);
  tanh1(k, x.data(), add.data(), out.data(), n, 2.0, 0.4, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(bits(out[i]),
              bits(1.0 * gu::det_tanh(2.0 * (x[i] + add[i]) / 0.4)))
        << k.name << " tanh_stage+add " << i;

  k.exp_block(x.data(), out.data(), n);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(bits(out[i]), bits(gu::det_exp(x[i])))
        << k.name << " exp " << i << " x=" << x[i];

  // sincos2pi and Box-Muller take uniforms in [0, 1) / (0, 1].
  std::vector<double> u1(n), u2(n), os(n, -1.0), oc(n, -1.0);
  for (std::size_t i = 0; i < n; ++i) {
    u2[i] = static_cast<double>(i) / static_cast<double>(n);
    u1[i] = 1.0 - u2[i];
  }
  u1[5] = 0x1.0p-53;  // smallest uniform the RNG produces
  k.sincos2pi_block(u2.data(), os.data(), oc.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    double s, c;
    gu::det_sincos2pi(u2[i], s, c);
    ASSERT_EQ(bits(os[i]), bits(s)) << k.name << " sin " << i;
    ASSERT_EQ(bits(oc[i]), bits(c)) << k.name << " cos " << i;
  }
  k.box_muller(u1.data(), u2.data(), oc.data(), os.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    double c, s;
    gb::box_muller_step(u1[i], u2[i], c, s);
    ASSERT_EQ(bits(oc[i]), bits(c)) << k.name << " box_muller cos " << i;
    ASSERT_EQ(bits(os[i]), bits(s)) << k.name << " box_muller sin " << i;
  }

  // Odd lengths so every tail-length path of the vector kernels runs.
  for (std::size_t len : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{4}, std::size_t{5}, std::size_t{7}}) {
    tanh1(k, x.data(), nullptr, out.data(), len, 3.0, 0.2, 0.4);
    for (std::size_t i = 0; i < len; ++i)
      ASSERT_EQ(bits(out[i]), bits(0.4 * gu::det_tanh(3.0 * x[i] / 0.2)))
          << k.name << " tanh_stage len=" << len << " " << i;
  }
}

}  // namespace

TEST(BackendKernels, ScalarElementwiseMatchesOracle) {
  pin_elementwise(gb::scalar_kernels());
}

TEST(BackendKernels, Avx2ElementwiseIsBitExact) {
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 backend not usable here";
  pin_elementwise(*gb::avx2_kernels());
}

TEST(BackendKernels, OnePolePartitionInvariancePerBackend) {
  // Any split of the sample stream into kernel calls yields identical
  // bytes — the AVX2 scan carries its group phase in OnePoleState.
  const auto x = stimulus(4099);
  for (const gb::Kernels* k : tables()) {
    gb::OnePoleState whole{};
    std::vector<double> want(x.size(), -1.0);
    one_pole1(*k, x.data(), want.data(), x.size(), 0.17, whole);
    for (std::size_t chunk : kChunks) {
      gb::OnePoleState st{};
      std::vector<double> got(x.size(), -1.0);
      for (std::size_t o = 0; o < x.size(); o += chunk)
        one_pole1(*k, x.data() + o, got.data() + o,
                  std::min(chunk, x.size() - o), 0.17, st);
      for (std::size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(bits(want[i]), bits(got[i]))
            << k->name << " chunk " << chunk << " sample " << i;
      ASSERT_EQ(bits(st.y), bits(whole.y)) << k->name << " final state";
    }
  }
}

TEST(BackendKernels, SlewMatchesStepOracleAtAnyPartition) {
  // The solo slew kernel is serial-by-contract: every backend must match
  // the slew_step oracle bit for bit, for any chunking of the stream
  // (state carries across calls in SlewState).
  const auto x = stimulus(4099);
  gb::SlewCoeffs c;
  c.max_step = 0.02;
  c.lin = 0.3;
  c.has_lin = true;
  c.leak = 0.001;
  c.has_leak = true;
  std::vector<double> want(x.size(), -1.0);
  {
    gb::SlewState st{};
    for (std::size_t i = 0; i < x.size(); ++i)
      want[i] = gb::slew_step(c, st, x[i]);
  }
  for (const gb::Kernels* k : tables()) {
    for (std::size_t chunk : kChunks) {
      gb::SlewState st{};
      std::vector<double> got(x.size(), -1.0);
      for (std::size_t o = 0; o < x.size(); o += chunk)
        slew1(*k, x.data() + o, got.data() + o, std::min(chunk, x.size() - o),
              c, st);
      for (std::size_t i = 0; i < x.size(); ++i)
        ASSERT_EQ(bits(want[i]), bits(got[i]))
            << k->name << " slew chunk " << chunk << " sample " << i;
    }
  }
}

TEST(BackendKernels, VgaTailMatchesStepOracleAtAnyPartition) {
  // Same contract for the droop/slew tail: bit-exact against
  // vga_tail_step on every backend, partition-invariant via
  // SlewState + VgaTailState — at the hoisted amplitude and with a
  // per-sample amplitude (modulated Vctrl).
  const auto lim = stimulus(2053);
  gb::VgaTailCoeffs c;
  c.amp = 0.45;
  c.droop_frac = 0.1;
  c.amp_frac = c.amp * c.droop_frac;
  c.max_step = 0.015;
  c.inv_max_step = 1.0 / 0.015;
  c.alpha = 0.02;
  c.slew.max_step = 0.015;
  c.slew.lin = 0.25;
  c.slew.has_lin = true;
  std::vector<double> amp(lim.size());
  for (std::size_t i = 0; i < amp.size(); ++i)
    amp[i] = 0.3 + 0.1 * std::sin(0.01 * static_cast<double>(i));
  for (const double* a : {static_cast<const double*>(nullptr),
                          static_cast<const double*>(amp.data())}) {
    std::vector<double> want(lim.size(), -1.0);
    {
      gb::SlewState sl{};
      gb::VgaTailState d{};
      for (std::size_t i = 0; i < lim.size(); ++i)
        want[i] = a ? gb::vga_tail_step(c, a[i], a[i] * c.droop_frac, sl, d,
                                        lim[i])
                    : gb::vga_tail_step(c, sl, d, lim[i]);
    }
    for (const gb::Kernels* k : tables()) {
      for (std::size_t chunk : kChunks) {
        gb::SlewState sl{};
        gb::VgaTailState d{};
        std::vector<double> got(lim.size(), -1.0);
        for (std::size_t o = 0; o < lim.size(); o += chunk)
          vga_tail1(*k, lim.data() + o, a ? a + o : nullptr, got.data() + o,
                    std::min(chunk, lim.size() - o), c, sl, d);
        for (std::size_t i = 0; i < lim.size(); ++i)
          ASSERT_EQ(bits(want[i]), bits(got[i]))
              << k->name << " vga_tail chunk " << chunk << " sample " << i
              << (a ? " (per-sample amp)" : "");
      }
    }
  }
}

TEST(BackendKernels, OnePoleCrossBackendAmplitudeEnvelope) {
  // The AVX2 group-of-4 scan reassociates the recursion; the contract
  // bounds the divergence from the serial oracle to a few machine
  // epsilons of the SIGNAL AMPLITUDE (not ULP of the output — near zero
  // crossings the output is tiny and its ULP is meaningless). Pinned at
  // 16 eps * max|y|; measured worst across alphas is ~1.4 eps.
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 backend not usable here";
  const auto x = stimulus(4099);
  constexpr double kEps = 2.220446049250313e-16;
  for (double alpha : {0.02, 0.17, 0.6, 0.95}) {
    gb::OnePoleState ss{}, sv{};
    std::vector<double> a(x.size()), b(x.size());
    one_pole1(gb::scalar_kernels(), x.data(), a.data(), x.size(), alpha, ss);
    one_pole1(*gb::avx2_kernels(), x.data(), b.data(), x.size(), alpha, sv);
    double amp = 0.0, worst = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      amp = std::max(amp, std::abs(a[i]));
      worst = std::max(worst, std::abs(a[i] - b[i]));
    }
    EXPECT_LE(worst, 16.0 * kEps * amp) << "alpha " << alpha;
  }
}

TEST(BackendKernels, OnePoleAlphaChangeReanchorsDeterministically) {
  // A dt (alpha) change mid-stream re-anchors the AVX2 group; both the
  // one-call-per-alpha and the sample-at-a-time partitions must agree.
  const auto x = stimulus(601);
  for (const gb::Kernels* k : tables()) {
    gb::OnePoleState s1{}, s2{};
    std::vector<double> a(x.size()), b(x.size());
    one_pole1(*k, x.data(), a.data(), 301, 0.17, s1);
    one_pole1(*k, x.data() + 301, a.data() + 301, 300, 0.42, s1);
    for (std::size_t i = 0; i < x.size(); ++i)
      one_pole1(*k, x.data() + i, b.data() + i, 1, i < 301 ? 0.17 : 0.42, s2);
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(bits(a[i]), bits(b[i])) << k->name << " sample " << i;
  }
}

// ---------------------------------------------------------------------------
// Lane pins: w interleaved streams against w solo runs of the same table
// ---------------------------------------------------------------------------

namespace {

// 17 leaves a partial group after four full ones on either table.
const std::size_t kWidths[] = {1, 3, 4, 9, 17};
// Partitions of the lane calls: one whole call, a tiny odd chunk that
// leaves every AVX2 group mid-phase at each seam, and a round mid-size.
const std::size_t kSeams[] = {0, 7, 64};  // 0 = whole

// Per-stream input: distinct smooth+switching content so lanes that
// accidentally mix streams produce loud mismatches.
std::vector<double> stream_input(std::size_t n, std::size_t s) {
  std::vector<double> v(n);
  const double f = 0.05 + 0.013 * static_cast<double>(s);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    v[i] = 0.3 * std::sin(f * t) + ((i / (29 + 2 * s)) % 2 ? 0.2 : -0.2);
  }
  return v;
}

// Runs `lane_call(lo, n)` over [0, total) in `seam`-sized slices.
template <typename F>
void partitioned(std::size_t total, std::size_t seam, F lane_call) {
  const std::size_t step = seam == 0 ? total : seam;
  for (std::size_t o = 0; o < total; o += step)
    lane_call(o, std::min(step, total - o));
}

// The lane contract of one width-generic kernel, per table, width and
// seam: stream s (input x, second input x2 — an add or amplitude array)
// run through `lanes(k, w, x, x2, out, n, states)` interleaved must give
// the bytes of `solo(k, s, x, x2, out, n, state)` run alone.
template <typename State, typename Solo, typename Lanes>
void expect_lanes_match_solo(Solo solo, Lanes lanes) {
  constexpr std::size_t kN = 1021;
  for (const gb::Kernels* k : tables()) {
    for (std::size_t w : kWidths) {
      std::vector<double> in(kN * w), in2(kN * w), want(kN * w);
      for (std::size_t s = 0; s < w; ++s) {
        const auto x = stream_input(kN, s), x2 = stream_input(kN, s + 100);
        std::vector<double> out(kN);
        State st{};
        solo(*k, s, x.data(), x2.data(), out.data(), kN, st);
        for (std::size_t i = 0; i < kN; ++i) {
          in[i * w + s] = x[i];
          in2[i * w + s] = x2[i];
          want[i * w + s] = out[i];
        }
      }
      for (std::size_t seam : kSeams) {
        std::vector<State> st(w);
        std::vector<State*> stp;
        for (auto& one : st) stp.push_back(&one);
        std::vector<double> buf = in;
        partitioned(kN, seam, [&](std::size_t o, std::size_t n) {
          lanes(*k, w, buf.data() + o * w, in2.data() + o * w,
                buf.data() + o * w, n, stp.data());
        });
        for (std::size_t j = 0; j < buf.size(); ++j)
          ASSERT_EQ(bits(want[j]), bits(buf[j]))
              << k->name << " w=" << w << " seam=" << seam << " stream "
              << j % w << " sample " << j / w;
      }
    }
  }
}

double per_stream(std::size_t s, double base, double step) {
  return base + step * static_cast<double>(s);
}

}  // namespace

TEST(BatchKernels, OnePoleBatchMatchesSoloAnyWidthAndPartition) {
  expect_lanes_match_solo<gb::OnePoleState>(
      [](const gb::Kernels& k, std::size_t s, const double* x, const double*,
         double* out, std::size_t n, gb::OnePoleState& st) {
        one_pole1(k, x, out, n, per_stream(s, 0.05, 0.09), st);
      },
      [](const gb::Kernels& k, std::size_t w, const double* x, const double*,
         double* out, std::size_t n, gb::OnePoleState* const* st) {
        std::vector<double> alpha(w);
        for (std::size_t s = 0; s < w; ++s)
          alpha[s] = per_stream(s, 0.05, 0.09);
        k.one_pole(x, out, n, w, alpha.data(), st);
      });
}

TEST(BatchKernels, OnePoleBatchDivergentAlphaGroupFallsBack) {
  // Streams of one AVX2 group resuming at different scan phases (forced
  // here by different warm-up lengths) must take the per-stream path and
  // still match solo exactly.
  constexpr std::size_t kN = 257;
  for (const gb::Kernels* k : tables()) {
    const std::size_t w = 4;
    std::vector<std::vector<double>> in(w), want(w);
    std::vector<double> alpha(w, 0.17);
    std::vector<gb::OnePoleState> solo_st(w), st(w);
    // Warm each stream a different number of samples so phases diverge.
    for (std::size_t s = 0; s < w; ++s) {
      in[s] = stream_input(kN + s, s);
      std::vector<double> warm(4, 0.0);
      one_pole1(*k, in[s].data(), warm.data(), s, alpha[s], solo_st[s]);
      st[s] = solo_st[s];
      want[s].resize(kN);
      one_pole1(*k, in[s].data() + s, want[s].data(), kN, alpha[s],
                solo_st[s]);
    }
    std::vector<double> buf(kN * w);
    for (std::size_t s = 0; s < w; ++s)
      for (std::size_t i = 0; i < kN; ++i) buf[i * w + s] = in[s][i + s];
    std::vector<gb::OnePoleState*> stp(w);
    for (std::size_t s = 0; s < w; ++s) stp[s] = &st[s];
    k->one_pole(buf.data(), buf.data(), kN, w, alpha.data(), stp.data());
    for (std::size_t s = 0; s < w; ++s)
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(bits(want[s][i]), bits(buf[i * w + s]))
            << k->name << " s=" << s << " i=" << i;
  }
}

TEST(BatchKernels, SlewBatchMatchesSoloIncludingFlagDivergence) {
  // Streams 4..7 diverge in flags inside one AVX2 group, forcing the
  // per-stream fallback; 0..3 stay uniform (packed path).
  const auto coeffs = [](std::size_t s) {
    gb::SlewCoeffs c;
    c.max_step = per_stream(s, 0.002, 0.0007);
    c.has_lin = s < 4 || (s % 2 == 0);
    c.lin = c.has_lin ? 0.8 : 1.0;
    c.has_leak = s < 4 || (s % 3 == 0);
    c.leak = c.has_leak ? 0.01 : 0.0;
    return c;
  };
  expect_lanes_match_solo<gb::SlewState>(
      [&](const gb::Kernels& k, std::size_t s, const double* x, const double*,
          double* out, std::size_t n, gb::SlewState& st) {
        slew1(k, x, out, n, coeffs(s), st);
      },
      [&](const gb::Kernels& k, std::size_t w, const double* x, const double*,
          double* out, std::size_t n, gb::SlewState* const* st) {
        std::vector<gb::SlewCoeffs> c(w);
        for (std::size_t s = 0; s < w; ++s) c[s] = coeffs(s);
        k.slew(x, out, n, w, c.data(), st);
      });
}

TEST(BatchKernels, VgaTailBatchMatchesSoloAnyWidthAndPartition) {
  // At the hoisted amplitude, and with an interleaved per-sample
  // amplitude (the modulated-Vctrl port) as the second input.
  struct Tail {
    gb::SlewState slew;
    gb::VgaTailState droop;
  };
  const auto coeffs = [](std::size_t s) {
    gb::VgaTailCoeffs c;
    c.amp = per_stream(s, 0.3, 0.01);
    c.droop_frac = 0.4;
    c.amp_frac = c.amp * c.droop_frac;
    c.max_step = per_stream(s, 0.0012, 0.0003);
    c.inv_max_step = 1.0 / c.max_step;
    c.alpha = 0.0003;
    c.slew.max_step = c.max_step;
    c.slew.has_lin = true;
    c.slew.lin = 0.75;
    c.slew.has_leak = true;
    c.slew.leak = 0.003;
    return c;
  };
  for (bool modulated : {false, true}) {
    expect_lanes_match_solo<Tail>(
        [&](const gb::Kernels& k, std::size_t s, const double* x,
            const double* amp, double* out, std::size_t n, Tail& t) {
          vga_tail1(k, x, modulated ? amp : nullptr, out, n, coeffs(s),
                    t.slew, t.droop);
        },
        [&](const gb::Kernels& k, std::size_t w, const double* x,
            const double* amp, double* out, std::size_t n, Tail* const* t) {
          std::vector<gb::VgaTailCoeffs> c(w);
          std::vector<gb::SlewState*> sl(w);
          std::vector<gb::VgaTailState*> d(w);
          for (std::size_t s = 0; s < w; ++s) {
            c[s] = coeffs(s);
            sl[s] = &t[s]->slew;
            d[s] = &t[s]->droop;
          }
          k.vga_tail(x, modulated ? amp : nullptr, out, n, w, c.data(),
                     sl.data(), d.data());
        });
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BatchKernels, TanhStageBatchMatchesSoloWithAndWithoutAdd) {
  // Distinct per-stream coefficients; one set shared by every stream (a
  // device's calibration clones, which the scalar table runs as one
  // contiguous block); and a post that differs between streams only in
  // the sign of zero, which must not count as shared.
  enum Mode { kDistinct, kShared, kSignedZero };
  struct Coeffs {
    double gain, ref, post;
  };
  const auto coeffs = [](Mode mode, std::size_t s) {
    const std::size_t t = mode == kDistinct ? s : 0;
    const double post = mode == kSignedZero ? (s % 2 ? -0.0 : 0.0)
                                            : per_stream(t, 0.3, 0.02);
    return Coeffs{per_stream(t, 1.5, 0.5), per_stream(t, 0.2, 0.05), post};
  };
  for (Mode mode : {kDistinct, kShared, kSignedZero}) {
    for (bool with_add : {false, true}) {
      expect_lanes_match_solo<int>(
          [&](const gb::Kernels& k, std::size_t s, const double* x,
              const double* add, double* out, std::size_t n, int&) {
            const Coeffs c = coeffs(mode, s);
            tanh1(k, x, with_add ? add : nullptr, out, n, c.gain, c.ref,
                  c.post);
          },
          [&](const gb::Kernels& k, std::size_t w, const double* x,
              const double* add, double* out, std::size_t n, int* const*) {
            std::vector<double> gain(w), ref(w), post(w);
            for (std::size_t s = 0; s < w; ++s) {
              const Coeffs c = coeffs(mode, s);
              gain[s] = c.gain;
              ref[s] = c.ref;
              post[s] = c.post;
            }
            k.tanh_stage(x, with_add ? add : nullptr, out, n, w, gain.data(),
                         ref.data(), post.data());
          });
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-backend agreement
// ---------------------------------------------------------------------------

TEST(BackendCross, ElementwiseElementsAreBitIdentical) {
  // No recursion anywhere in these — the AVX2 path must reproduce the
  // scalar bytes exactly.
  expect_cross_backend([] { return ga::TanhLimiter(3.0, 0.4); }, true, 0.0);
  expect_cross_backend([] { return ga::GainStage(1.7); }, true, 0.0);
  expect_cross_backend([] { return ga::Attenuator(2.5); }, true, 0.0);
}

TEST(BackendCross, RecursiveElementsStayInsideScanEnvelope) {
  // One-pole content: the scan's reassociated rounding stays within a
  // few epsilons of the signal amplitude (~0.7 V here), far under 1e-12.
  expect_cross_backend([] { return ga::SinglePoleFilter(6.5); }, false, 1e-12);
  expect_cross_backend([] { return ga::NoiseAdder(0.02, Rng(42)); }, false,
                       1e-12);
}

TEST(BackendCross, CompositesStayClose) {
  // Through limiters, slew clamps and droop feedback the ULP framing
  // stops being meaningful (a clamp can flip on a 1-ULP input change);
  // the contract is absolute closeness of the waveform.
  if (!avx2_usable()) GTEST_SKIP() << "AVX2 backend not usable here";
  auto make = [] {
    ga::VgaBufferConfig cfg;
    auto vga = ga::VariableGainBuffer(cfg, Rng(7));
    vga.set_vctrl(0.9);
    return vga;
  };
  std::vector<double> a, b;
  {
    BackendSelect sel("scalar");
    auto e = make();
    a = run_block(e, 1024);
  }
  {
    BackendSelect sel("avx2");
    auto e = make();
    b = run_block(e, 1024);
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  EXPECT_LT(worst, 1e-9);
}

// ---------------------------------------------------------------------------
// Threaded sweeps per backend
// ---------------------------------------------------------------------------

TEST(BackendThreads, CalibrationBitIdenticalAcrossThreadCountsPerBackend) {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto stim = gs::synthesize_nrz(gs::prbs(7, 32), sc);
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 3;

  std::vector<std::string> names{"scalar"};
  if (avx2_usable()) names.push_back("avx2");
  for (const auto& name : names) {
    BackendSelect sel(name.c_str());
    gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(7));
    const gc::DelayCalibrator cal(o);
    gu::set_thread_count(1);
    const auto serial = cal.measure_fine_curve(line, stim.wf);
    gu::set_thread_count(4);
    const auto parallel = cal.measure_fine_curve(line, stim.wf);
    gu::set_thread_count(1);
    ASSERT_EQ(serial.xs().size(), parallel.xs().size()) << name;
    for (std::size_t i = 0; i < serial.xs().size(); ++i) {
      ASSERT_EQ(bits(serial.xs()[i]), bits(parallel.xs()[i])) << name;
      ASSERT_EQ(bits(serial.ys()[i]), bits(parallel.ys()[i])) << name;
    }
  }
}
