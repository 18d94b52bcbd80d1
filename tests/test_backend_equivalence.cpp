// Backend-equivalence suite: the compute backend's contract, enforced
// (see src/backend/backend.h and DESIGN.md "Compute backends").
//
// Four layers of checks:
//
//   1. Kernel pins. The table kernels (tanh_stage, Box-Muller) must be
//      BIT-EXACT against the scalar det_* code on every table — 0 ULP,
//      over domain sweeps that cover saturation boundaries, signed zero
//      and vector tails — and the serial recursions (one_pole, slew,
//      vga_tail) must match their reference steps at any partition of
//      the sample stream into calls.
//   2. Lane pins. Each width-generic kernel over w interleaved streams
//      against w solo (w == 1) runs, at widths spanning sub-group,
//      exact-group and group-plus-tail (1, 3, 4, 9, 17), with call
//      partitions that split groups and with per-stream parameter
//      divergence. tanh_stage runs once per table; each recursion has one
//      definition, so its tests run once.
//   3. Cross-backend byte identity: elements and whole devices print the
//      same bytes on every table. (Per-device partition and lane
//      invariance under every backend is tests/test_block_kernels.cpp.)
//   4. Threaded sweeps. Per backend, a parallel calibration run is
//      bit-identical at 1 and 4 threads (CI additionally re-runs the
//      whole suite under GDELAY_THREADS=4).
//
// Both tables compile from one source (src/backend/kernels_scalar.cpp),
// the AVX2 one vectorized by the compiler, so the cross-table pins check
// that the vectorization moves no bit. AVX2 cases skip (not fail) on
// machines without AVX2, so the suite is portable; the CI simd job
// guarantees they actually run somewhere.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "analog/buffer.h"
#include "analog/coupling.h"
#include "analog/primitives.h"
#include "backend/backend.h"
#include "core/channel.h"
#include "core/calibration.h"
#include "core/jitter_injector.h"
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

// NaNs of both signs (one carrying a payload), infinities, subnormals
// and the largest finite values: no device feeds them to a kernel on
// purpose, yet both tables must still agree on them bit for bit.
std::vector<double> edge_values() {
  using L = std::numeric_limits<double>;
  const double payload_nan = std::bit_cast<double>(0x7ff80000'0000abcdULL);
  return {L::quiet_NaN(),  -L::quiet_NaN(),  payload_nan, -payload_nan,
          L::infinity(),   -L::infinity(),   L::denorm_min(),
          -L::denorm_min(), 2.2e-310,        -2.2e-310,
          L::max(),        -L::max()};
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

// Partition sizes: single samples, an odd size that splits every group
// of four, exact multiples of four, and larger-than-cache blocks.
constexpr std::size_t kChunks[] = {1, 7, 64, 1024, 4096};

std::vector<const gb::Kernels*> tables() {
  std::vector<const gb::Kernels*> t{&gb::scalar_kernels()};
  if (const gb::Kernels* avx2 = gb::avx2_kernels()) t.push_back(avx2);
  return t;
}

// Solo (w == 1) calls of the width-generic kernels.
void tanh1(const gb::Kernels& k, const double* x, const double* add,
           double* out, std::size_t n, double gain, double ref, double post) {
  k.tanh_stage(x, add, out, n, 1, &gain, &ref, &post);
}

void one_pole1(const double* x, double* out, std::size_t n, double alpha,
               gb::OnePoleState& st) {
  gb::OnePoleState* p = &st;
  gb::one_pole(x, out, n, 1, &alpha, &p);
}

void slew1(const double* x, double* out, std::size_t n,
           const gb::SlewCoeffs& c, gb::SlewState& st) {
  gb::SlewState* p = &st;
  gb::slew(x, out, n, 1, &c, &p);
}

void vga_tail1(const double* lim, const double* amp, double* out,
               std::size_t n, const gb::VgaTailCoeffs& c, gb::SlewState& sl,
               gb::VgaTailState& d) {
  gb::SlewState* slp = &sl;
  gb::VgaTailState* dp = &d;
  gb::vga_tail(lim, amp, out, n, 1, &c, &slp, &dp);
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
// still split every segment.
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

// `run()` under the scalar and under the AVX2 table must give the same
// bytes.
template <typename Run>
void expect_same_bytes(Run run) {
  if (gb::avx2_kernels() == nullptr)
    GTEST_SKIP() << "AVX2 backend not usable here";
  std::vector<double> scalar_out, avx2_out;
  {
    BackendSelect sel("scalar");
    scalar_out = run();
  }
  {
    BackendSelect sel("avx2");
    avx2_out = run();
  }
  ASSERT_EQ(scalar_out.size(), avx2_out.size());
  for (std::size_t i = 0; i < scalar_out.size(); ++i)
    ASSERT_EQ(bits(scalar_out[i]), bits(avx2_out[i]))
        << "sample " << i << ": scalar=" << scalar_out[i]
        << " avx2=" << avx2_out[i];
}

// An element's block path (chunk 1024) on both tables.
template <typename MakeFn>
void expect_cross_backend(MakeFn make) {
  expect_same_bytes([&] {
    auto e = make();
    return run_block(e, 1024);
  });
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
  if (gb::avx2_kernels() != nullptr) {
    EXPECT_EQ(name, "avx2");
  }
}

TEST(BackendDispatch, Avx2SelectionMatchesProbes) {
  if (gb::avx2_kernels() == nullptr) {
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
// magnitudes and the non-finite and subnormal values, at a length (1027)
// that exercises vector body + tail.
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
  for (double e : edge_values()) v.push_back(e);
  while (v.size() < 1027) v.push_back(0.013 * static_cast<double>(v.size()));
  return v;
}

void pin_elementwise(const gb::Kernels& k) {
  const auto x = kernel_sweep();
  const std::size_t n = x.size();
  std::vector<double> out(n, -1.0);

  tanh1(k, x.data(), nullptr, out.data(), n, 2.0, 0.4, 0.35);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(bits(out[i]), bits(0.35 * gu::det_tanh(2.0 * x[i] / 0.4)))
        << k.name << " tanh_stage " << i << " x=" << x[i];
    // det_tanh saturates a NaN like an infinity: to +-1 by its sign bit.
    if (std::isnan(x[i])) {
      ASSERT_EQ(bits(out[i]), bits(std::signbit(x[i]) ? -0.35 : 0.35))
          << k.name << " tanh_stage NaN at " << i;
    }
  }

  // The add-array variant (noise injection before the limiter).
  std::vector<double> add(n);
  for (std::size_t i = 0; i < n; ++i) add[i] = 0.01 * std::sin(0.3 * i);
  tanh1(k, x.data(), add.data(), out.data(), n, 2.0, 0.4, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(bits(out[i]),
              bits(1.0 * gu::det_tanh(2.0 * (x[i] + add[i]) / 0.4)))
        << k.name << " tanh_stage+add " << i;

  // Box-Muller takes uniforms u1 in (0, 1] and u2 in [0, 1).
  std::vector<double> u1(n), u2(n), os(n, -1.0), oc(n, -1.0);
  for (std::size_t i = 0; i < n; ++i) {
    u2[i] = static_cast<double>(i) / static_cast<double>(n);
    u1[i] = 1.0 - u2[i];
  }
  u1[5] = 0x1.0p-53;  // smallest uniform the RNG produces
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
  if (gb::avx2_kernels() == nullptr)
    GTEST_SKIP() << "AVX2 backend not usable here";
  pin_elementwise(*gb::avx2_kernels());
}

// The serial recursions have one definition, used by every table: each
// must match its reference step bit for bit at any chunking of the
// stream (state carries across calls).

TEST(BackendKernels, OnePoleMatchesStepOracleAtAnyPartition) {
  // Across a mid-stream alpha (dt) change, which forces a call boundary.
  const auto x = stimulus(4099);
  constexpr std::size_t kSwitch = 2053;
  const auto alpha_at = [](std::size_t i) { return i < kSwitch ? 0.17 : 0.42; };
  std::vector<double> want(x.size(), -1.0);
  double y = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    want[i] = gb::one_pole_step(y, alpha_at(i), x[i]);
  for (std::size_t chunk : kChunks) {
    gb::OnePoleState st{};
    std::vector<double> got(x.size(), -1.0);
    for (std::size_t o = 0; o < x.size();) {
      const std::size_t end =
          std::min(o + chunk, o < kSwitch ? kSwitch : x.size());
      one_pole1(x.data() + o, got.data() + o, end - o, alpha_at(o), st);
      o = end;
    }
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(bits(want[i]), bits(got[i]))
          << "chunk " << chunk << " sample " << i;
    ASSERT_EQ(bits(st.y), bits(y)) << "chunk " << chunk << " final state";
  }
}

TEST(BackendKernels, SlewMatchesStepOracleAtAnyPartition) {
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
  for (std::size_t chunk : kChunks) {
    gb::SlewState st{};
    std::vector<double> got(x.size(), -1.0);
    for (std::size_t o = 0; o < x.size(); o += chunk)
      slew1(x.data() + o, got.data() + o, std::min(chunk, x.size() - o), c,
            st);
    for (std::size_t i = 0; i < x.size(); ++i)
      ASSERT_EQ(bits(want[i]), bits(got[i]))
          << "slew chunk " << chunk << " sample " << i;
  }
}

TEST(BackendKernels, VgaTailMatchesStepOracleAtAnyPartition) {
  // The droop/slew tail, partition-invariant via SlewState + VgaTailState
  // — at the hoisted amplitude and with a per-sample amplitude (modulated
  // Vctrl).
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
    for (std::size_t chunk : kChunks) {
      gb::SlewState sl{};
      gb::VgaTailState d{};
      std::vector<double> got(lim.size(), -1.0);
      for (std::size_t o = 0; o < lim.size(); o += chunk)
        vga_tail1(lim.data() + o, a ? a + o : nullptr, got.data() + o,
                  std::min(chunk, lim.size() - o), c, sl, d);
      for (std::size_t i = 0; i < lim.size(); ++i)
        ASSERT_EQ(bits(want[i]), bits(got[i]))
            << "vga_tail chunk " << chunk << " sample " << i
            << (a ? " (per-sample amp)" : "");
    }
  }
}

// ---------------------------------------------------------------------------
// Lane pins: w interleaved streams against w solo runs
// ---------------------------------------------------------------------------

namespace {

// 17 leaves a partial group after four full ones.
const std::size_t kWidths[] = {1, 3, 4, 9, 17};
// Partitions of the lane calls: one whole call, a tiny odd chunk, and a
// round mid-size.
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

// stream_input, with stream 1 also carrying every edge value.
std::vector<double> edge_stream_input(std::size_t n, std::size_t s) {
  auto v = stream_input(n, s);
  if (s == 1) {
    const auto edges = edge_values();
    for (std::size_t k = 0; k < edges.size(); ++k) v[5 + 61 * k] = edges[k];
  }
  return v;
}

// The lane contract of one width-generic kernel, per width and seam:
// stream s (input x = input(n, s), second input x2 = input(n, s + 100) —
// an add or amplitude array) run through `lanes(w, x, x2, out, n,
// states)` interleaved must give the bytes of `solo(s, x, x2, out, n,
// state)` run alone.
template <typename State, typename Solo, typename Lanes>
void expect_lanes_match_solo(
    Solo solo, Lanes lanes,
    std::vector<double> (*input)(std::size_t, std::size_t) = stream_input) {
  constexpr std::size_t kN = 1021;
  for (std::size_t w : kWidths) {
    std::vector<double> in(kN * w), in2(kN * w), want(kN * w);
    for (std::size_t s = 0; s < w; ++s) {
      const auto x = input(kN, s), x2 = input(kN, s + 100);
      std::vector<double> out(kN);
      State st{};
      solo(s, x.data(), x2.data(), out.data(), kN, st);
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
        lanes(w, buf.data() + o * w, in2.data() + o * w, buf.data() + o * w,
              n, stp.data());
      });
      for (std::size_t j = 0; j < buf.size(); ++j)
        ASSERT_EQ(bits(want[j]), bits(buf[j]))
            << "w=" << w << " seam=" << seam << " stream " << j % w
            << " sample " << j / w;
    }
  }
}

double per_stream(std::size_t s, double base, double step) {
  return base + step * static_cast<double>(s);
}

}  // namespace

TEST(BatchKernels, OnePoleBatchMatchesSoloAnyWidthAndPartition) {
  expect_lanes_match_solo<gb::OnePoleState>(
      [](std::size_t s, const double* x, const double*, double* out,
         std::size_t n, gb::OnePoleState& st) {
        one_pole1(x, out, n, per_stream(s, 0.05, 0.09), st);
      },
      [](std::size_t w, const double* x, const double*, double* out,
         std::size_t n, gb::OnePoleState* const* st) {
        std::vector<double> alpha(w);
        for (std::size_t s = 0; s < w; ++s)
          alpha[s] = per_stream(s, 0.05, 0.09);
        gb::one_pole(x, out, n, w, alpha.data(), st);
      });
}

TEST(BatchKernels, SlewBatchMatchesSoloIncludingFlagDivergence) {
  // Streams 0..3 share their flags; 4..7 diverge inside one group of
  // four.
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
      [&](std::size_t s, const double* x, const double*, double* out,
          std::size_t n, gb::SlewState& st) {
        slew1(x, out, n, coeffs(s), st);
      },
      [&](std::size_t w, const double* x, const double*, double* out,
          std::size_t n, gb::SlewState* const* st) {
        std::vector<gb::SlewCoeffs> c(w);
        for (std::size_t s = 0; s < w; ++s) c[s] = coeffs(s);
        gb::slew(x, out, n, w, c.data(), st);
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
        [&](std::size_t s, const double* x, const double* amp, double* out,
            std::size_t n, Tail& t) {
          vga_tail1(x, modulated ? amp : nullptr, out, n, coeffs(s), t.slew,
                    t.droop);
        },
        [&](std::size_t w, const double* x, const double* amp, double* out,
            std::size_t n, Tail* const* t) {
          std::vector<gb::VgaTailCoeffs> c(w);
          std::vector<gb::SlewState*> sl(w);
          std::vector<gb::VgaTailState*> d(w);
          for (std::size_t s = 0; s < w; ++s) {
            c[s] = coeffs(s);
            sl[s] = &t[s]->slew;
            d[s] = &t[s]->droop;
          }
          gb::vga_tail(x, modulated ? amp : nullptr, out, n, w, c.data(),
                       sl.data(), d.data());
        });
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BatchKernels, TanhStageBatchMatchesSoloWithAndWithoutAdd) {
  // Distinct per-stream coefficients; one set shared by every stream (a
  // device's calibration clones, which the scalar table runs as one
  // contiguous block); and a post that differs between streams only in
  // the sign of zero, which must not count as shared. Stream 1 carries
  // the NaNs, infinities and subnormals of edge_values().
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
  for (const gb::Kernels* k : tables()) {
    for (Mode mode : {kDistinct, kShared, kSignedZero}) {
      for (bool with_add : {false, true}) {
        SCOPED_TRACE(k->name);
        expect_lanes_match_solo<int>(
            [&](std::size_t s, const double* x, const double* add,
                double* out, std::size_t n, int&) {
              const Coeffs c = coeffs(mode, s);
              tanh1(*k, x, with_add ? add : nullptr, out, n, c.gain, c.ref,
                    c.post);
            },
            [&](std::size_t w, const double* x, const double* add,
                double* out, std::size_t n, int* const*) {
              std::vector<double> gain(w), ref(w), post(w);
              for (std::size_t s = 0; s < w; ++s) {
                const Coeffs c = coeffs(mode, s);
                gain[s] = c.gain;
                ref[s] = c.ref;
                post[s] = c.post;
              }
              k->tanh_stage(x, with_add ? add : nullptr, out, n, w,
                            gain.data(), ref.data(), post.data());
            },
            edge_stream_input);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-backend byte identity
// ---------------------------------------------------------------------------

TEST(BackendCross, ElementwiseElementsAreBitIdentical) {
  expect_cross_backend([] { return ga::TanhLimiter(3.0, 0.4); });
  expect_cross_backend([] { return ga::Attenuator(2.5); });
}

TEST(BackendCross, RecursiveElementsStayInsideScanEnvelope) {
  // One-pole content, and band-limited noise drawn through box_muller.
  // Every table runs the one serial one-pole recursion, so the
  // cross-backend envelope is zero: byte equality.
  expect_cross_backend([] { return ga::SinglePoleFilter(6.5); });
  expect_cross_backend(
      [] { return ga::LimitingBuffer(ga::LimitingBufferConfig{}, Rng(42)); });
}

TEST(BackendCross, CompositesStayClose) {
  // The VGA stage's limiter, slew clamp and droop feedback: a clamp can
  // flip on a 1-ULP input change, so nothing short of byte equality
  // upstream keeps the waveforms close; both tables give the same bytes.
  expect_cross_backend([] {
    auto vga = ga::VariableGainBuffer(ga::VgaBufferConfig{}, Rng(7));
    vga.set_vctrl(0.9);
    return vga;
  });
}

namespace {

gs::SynthResult nrz_stimulus() {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  return gs::synthesize_nrz(gs::prbs(7, 64), sc);
}

}  // namespace

TEST(BackendCross, FineDelayLineWithPerSampleVctrlIsBitIdentical) {
  const auto s = nrz_stimulus();
  std::vector<double> vctrl(s.wf.size());
  for (std::size_t i = 0; i < vctrl.size(); ++i)
    vctrl[i] = 0.75 + 0.5 * std::sin(0.0013 * static_cast<double>(i));
  expect_same_bytes([&] {
    gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(3));
    std::vector<double> out(s.wf.size());
    line.process_block(s.wf.samples().data(), vctrl.data(), out.data(),
                       out.size(), s.wf.dt_ps());
    return out;
  });
}

TEST(BackendCross, VariableDelayChannelOnEveryTapIsBitIdentical) {
  const auto s = nrz_stimulus();
  for (int tap = 0; tap < gc::CoarseDelayBlock::kTaps; ++tap) {
    SCOPED_TRACE("tap " + std::to_string(tap));
    expect_same_bytes([&] {
      gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(5));
      ch.select_tap(tap);
      ch.set_vctrl(0.6);
      return ch.process(s.wf).samples();
    });
  }
}

TEST(BackendCross, JitterInjectorWithNoiseAndSjIsBitIdentical) {
  const auto s = nrz_stimulus();
  gc::JitterInjectorConfig noise, sj;
  sj.noise_pp_v = 0.0;
  sj.sj_pp_v = 0.6;
  sj.sj_freq_ghz = 0.2;
  for (const auto& cfg : {noise, sj}) {
    SCOPED_TRACE(cfg.sj_pp_v > 0.0 ? "sj" : "noise");
    expect_same_bytes([&] {
      gc::JitterInjector inj(cfg, Rng(99));
      return inj.process(s.wf).samples();
    });
  }
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
  if (gb::avx2_kernels() != nullptr) names.push_back("avx2");
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
