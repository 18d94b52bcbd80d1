// Lane-batched execution contract (src/backend/backend.h "Lane-batched
// kernels", core/batch.h): every stream of a batched run produces the
// SAME BYTES as its solo run on the same backend — for any batch width,
// any stream-to-lane assignment, and any partition of the sample stream
// into batch calls. Three layers:
//
//   1. Kernel pins: each *_batch kernel against w solo runs of the same
//      table, at widths spanning sub-group, exact-group and
//      group-plus-tail (1, 3, 4, 9), with call partitions that split
//      groups mid-phase, and with per-stream parameter divergence that
//      forces the AVX2 per-stream fallbacks.
//   2. BatchRunner vs solo device runs: FineDelayLine and
//      VariableDelayChannel clones with per-stream fork_noise / Vctrl /
//      tap programming, compared waveform-bitwise; plus lane-assignment
//      invariance (same streams added in a different order) and the
//      sink-path/waveform-path identity.
//   3. The calibration reroute: measure_fine_curve (now lane-batched)
//      against a hand-rolled solo clone sweep — the pre-batching code.
//
// AVX2 cases skip (not fail) without AVX2+FMA; CI's simd job runs them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "core/batch.h"
#include "core/calibration.h"
#include "core/channel.h"
#include "core/fine_delay.h"
#include "measure/delay_meter.h"
#include "measure/sinks.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"

namespace ga = gdelay::analog;
namespace gb = gdelay::backend;
namespace gc = gdelay::core;
namespace gm = gdelay::meas;
namespace gs = gdelay::sig;
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

struct BackendSelect {
  std::string prev;
  explicit BackendSelect(const char* name) : prev(gb::active().name) {
    gb::select(name);
  }
  ~BackendSelect() { gb::select(prev.c_str()); }
};

const std::size_t kWidths[] = {1, 3, 4, 9};
// Partitions of the batch calls: one whole call, a tiny odd chunk that
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

std::vector<const gb::Kernels*> tables() {
  std::vector<const gb::Kernels*> t{&gb::scalar_kernels()};
  if (avx2_usable()) t.push_back(gb::avx2_kernels());
  return t;
}

// Runs `batch_call(lo, n)` over [0, total) in `seam`-sized slices.
template <typename F>
void partitioned(std::size_t total, std::size_t seam, F batch_call) {
  const std::size_t step = seam == 0 ? total : seam;
  for (std::size_t o = 0; o < total; o += step)
    batch_call(o, std::min(step, total - o));
}

}  // namespace

// ---------------------------------------------------------------------------
// Layer 1: kernel pins
// ---------------------------------------------------------------------------

TEST(BatchKernels, OnePoleBatchMatchesSoloAnyWidthAndPartition) {
  constexpr std::size_t kN = 1021;
  for (const gb::Kernels* k : tables()) {
    for (std::size_t w : kWidths) {
      // Solo references, one independent run per stream.
      std::vector<std::vector<double>> in(w), want(w);
      std::vector<double> alpha(w);
      for (std::size_t s = 0; s < w; ++s) {
        in[s] = stream_input(kN, s);
        want[s].resize(kN);
        alpha[s] = 0.05 + 0.09 * static_cast<double>(s);
        gb::OnePoleState st{};
        k->one_pole(in[s].data(), want[s].data(), kN, alpha[s], st);
      }
      for (std::size_t seam : kSeams) {
        std::vector<double> buf(kN * w);
        for (std::size_t s = 0; s < w; ++s)
          for (std::size_t i = 0; i < kN; ++i) buf[i * w + s] = in[s][i];
        std::vector<gb::OnePoleState> st(w);
        std::vector<gb::OnePoleState*> stp(w);
        for (std::size_t s = 0; s < w; ++s) stp[s] = &st[s];
        partitioned(kN, seam, [&](std::size_t o, std::size_t n) {
          k->one_pole_batch(buf.data() + o * w, buf.data() + o * w, n, w,
                            alpha.data(), stp.data());
        });
        for (std::size_t s = 0; s < w; ++s)
          for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(bits(want[s][i]), bits(buf[i * w + s]))
                << k->name << " w=" << w << " seam=" << seam << " s=" << s
                << " i=" << i;
      }
    }
  }
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
      k->one_pole(in[s].data(), warm.data(), s, alpha[s], solo_st[s]);
      st[s] = solo_st[s];
      want[s].resize(kN);
      k->one_pole(in[s].data() + s, want[s].data(), kN, alpha[s], solo_st[s]);
    }
    std::vector<double> buf(kN * w);
    for (std::size_t s = 0; s < w; ++s)
      for (std::size_t i = 0; i < kN; ++i) buf[i * w + s] = in[s][i + s];
    std::vector<gb::OnePoleState*> stp(w);
    for (std::size_t s = 0; s < w; ++s) stp[s] = &st[s];
    k->one_pole_batch(buf.data(), buf.data(), kN, w, alpha.data(), stp.data());
    for (std::size_t s = 0; s < w; ++s)
      for (std::size_t i = 0; i < kN; ++i)
        ASSERT_EQ(bits(want[s][i]), bits(buf[i * w + s]))
            << k->name << " s=" << s << " i=" << i;
  }
}

TEST(BatchKernels, SlewBatchMatchesSoloIncludingFlagDivergence) {
  constexpr std::size_t kN = 1021;
  for (const gb::Kernels* k : tables()) {
    for (std::size_t w : kWidths) {
      std::vector<std::vector<double>> in(w), want(w);
      std::vector<gb::SlewCoeffs> c(w);
      for (std::size_t s = 0; s < w; ++s) {
        in[s] = stream_input(kN, s);
        want[s].resize(kN);
        c[s].max_step = 0.002 + 0.0007 * static_cast<double>(s);
        // Streams 4..7 diverge in flags inside one AVX2 group, forcing
        // the per-stream fallback; 0..3 stay uniform (packed path).
        c[s].has_lin = s < 4 || (s % 2 == 0);
        c[s].lin = c[s].has_lin ? 0.8 : 1.0;
        c[s].has_leak = s < 4 || (s % 3 == 0);
        c[s].leak = c[s].has_leak ? 0.01 : 0.0;
        gb::SlewState st{};
        k->slew(in[s].data(), want[s].data(), kN, c[s], st);
      }
      for (std::size_t seam : kSeams) {
        std::vector<double> buf(kN * w);
        for (std::size_t s = 0; s < w; ++s)
          for (std::size_t i = 0; i < kN; ++i) buf[i * w + s] = in[s][i];
        std::vector<gb::SlewState> st(w);
        std::vector<const gb::SlewCoeffs*> cp(w);
        std::vector<gb::SlewState*> stp(w);
        for (std::size_t s = 0; s < w; ++s) {
          cp[s] = &c[s];
          stp[s] = &st[s];
        }
        partitioned(kN, seam, [&](std::size_t o, std::size_t n) {
          k->slew_batch(buf.data() + o * w, buf.data() + o * w, n, w,
                        cp.data(), stp.data());
        });
        for (std::size_t s = 0; s < w; ++s)
          for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(bits(want[s][i]), bits(buf[i * w + s]))
                << k->name << " w=" << w << " seam=" << seam << " s=" << s
                << " i=" << i;
      }
    }
  }
}

TEST(BatchKernels, VgaTailBatchMatchesSoloAnyWidthAndPartition) {
  constexpr std::size_t kN = 1021;
  for (const gb::Kernels* k : tables()) {
    for (std::size_t w : kWidths) {
      std::vector<std::vector<double>> in(w), want(w);
      std::vector<gb::VgaTailCoeffs> c(w);
      for (std::size_t s = 0; s < w; ++s) {
        in[s] = stream_input(kN, s);
        want[s].resize(kN);
        c[s].amp = 0.3 + 0.01 * static_cast<double>(s);
        c[s].amp_frac = 0.4 * c[s].amp;
        c[s].max_step = 0.0012 + 0.0003 * static_cast<double>(s);
        c[s].inv_max_step = 1.0 / c[s].max_step;
        c[s].alpha = 0.0003;
        c[s].slew.max_step = c[s].max_step;
        c[s].slew.has_lin = true;
        c[s].slew.lin = 0.75;
        c[s].slew.has_leak = true;
        c[s].slew.leak = 0.003;
        gb::SlewState sst{};
        gb::VgaTailState tst{};
        k->vga_tail(in[s].data(), nullptr, want[s].data(), kN, c[s], sst, tst);
      }
      for (std::size_t seam : kSeams) {
        std::vector<double> buf(kN * w);
        for (std::size_t s = 0; s < w; ++s)
          for (std::size_t i = 0; i < kN; ++i) buf[i * w + s] = in[s][i];
        std::vector<gb::SlewState> sst(w);
        std::vector<gb::VgaTailState> tst(w);
        std::vector<const gb::VgaTailCoeffs*> cp(w);
        std::vector<gb::SlewState*> sstp(w);
        std::vector<gb::VgaTailState*> tstp(w);
        for (std::size_t s = 0; s < w; ++s) {
          cp[s] = &c[s];
          sstp[s] = &sst[s];
          tstp[s] = &tst[s];
        }
        partitioned(kN, seam, [&](std::size_t o, std::size_t n) {
          k->vga_tail_batch(buf.data() + o * w, buf.data() + o * w, n, w,
                            cp.data(), sstp.data(), tstp.data());
        });
        for (std::size_t s = 0; s < w; ++s)
          for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(bits(want[s][i]), bits(buf[i * w + s]))
                << k->name << " w=" << w << " seam=" << seam << " s=" << s
                << " i=" << i;
      }
    }
  }
}

TEST(BatchKernels, TanhStageBatchMatchesSoloWithAndWithoutAdd) {
  constexpr std::size_t kN = 517;
  for (const gb::Kernels* k : tables()) {
    for (std::size_t w : kWidths) {
      std::vector<std::vector<double>> in(w), add(w);
      std::vector<double> gain(w), ref(w), post(w);
      for (std::size_t s = 0; s < w; ++s) {
        in[s] = stream_input(kN, s);
        add[s] = stream_input(kN, s + 100);
        gain[s] = 1.5 + 0.5 * static_cast<double>(s);
        ref[s] = 0.2 + 0.05 * static_cast<double>(s);
        post[s] = 0.3 + 0.02 * static_cast<double>(s);
      }
      for (bool with_add : {false, true}) {
        std::vector<double> buf(kN * w), abuf(kN * w);
        for (std::size_t s = 0; s < w; ++s)
          for (std::size_t i = 0; i < kN; ++i) {
            buf[i * w + s] = in[s][i];
            abuf[i * w + s] = add[s][i];
          }
        k->tanh_stage_batch(buf.data(), with_add ? abuf.data() : nullptr,
                            buf.data(), kN, w, gain.data(), ref.data(),
                            post.data());
        for (std::size_t s = 0; s < w; ++s) {
          std::vector<double> want(kN);
          k->tanh_stage(in[s].data(), with_add ? add[s].data() : nullptr,
                        want.data(), kN, gain[s], ref[s], post[s]);
          for (std::size_t i = 0; i < kN; ++i)
            ASSERT_EQ(bits(want[i]), bits(buf[i * w + s]))
                << k->name << " w=" << w << " add=" << with_add << " s=" << s
                << " i=" << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Layer 2: BatchRunner vs solo devices
// ---------------------------------------------------------------------------

namespace {

gs::Waveform stimulus() {
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  return gs::synthesize_nrz(gs::prbs(7, 48), sc).wf;
}

bool wf_equal(const gs::Waveform& a, const gs::Waveform& b) {
  if (a.size() != b.size()) return false;
  return std::memcmp(a.samples().data(), b.samples().data(),
                     a.size() * sizeof(double)) == 0;
}

gc::FineDelayLine make_fine(std::size_t s, double vmax_frac) {
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(7));
  line.fork_noise(s);
  line.set_vctrl(line.vctrl_max() * vmax_frac);
  return line;
}

gc::VariableDelayChannel make_channel(std::size_t s) {
  gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(99));
  ch.fork_noise(s);
  ch.select_tap(static_cast<int>(s % 4));
  ch.set_vctrl(ch.vctrl_max() * static_cast<double>(s) / 9.0);
  return ch;
}

}  // namespace

TEST(BatchRunnerEquivalence, FineLineMatchesSoloAnyWidthPerBackend) {
  const auto stim = stimulus();
  std::vector<std::string> names{"scalar"};
  if (avx2_usable()) names.push_back("avx2");
  for (const auto& name : names) {
    BackendSelect sel(name.c_str());
    for (std::size_t w : kWidths) {
      std::vector<gc::FineDelayLine> lines;
      for (std::size_t s = 0; s < w; ++s)
        lines.push_back(make_fine(s, static_cast<double>(s) / 8.0));
      gc::BatchRunner runner;
      for (auto& l : lines) runner.add(l);
      const auto outs = runner.run(stim);
      for (std::size_t s = 0; s < w; ++s) {
        auto solo = make_fine(s, static_cast<double>(s) / 8.0);
        const auto want = solo.process(stim);
        ASSERT_TRUE(wf_equal(want, outs[s])) << name << " w=" << w
                                             << " stream " << s;
      }
    }
  }
}

TEST(BatchRunnerEquivalence, ChannelMatchesSoloWithPerStreamProgramming) {
  const auto stim = stimulus();
  std::vector<std::string> names{"scalar"};
  if (avx2_usable()) names.push_back("avx2");
  for (const auto& name : names) {
    BackendSelect sel(name.c_str());
    for (std::size_t w : {std::size_t{3}, std::size_t{9}}) {
      std::vector<gc::VariableDelayChannel> chans;
      for (std::size_t s = 0; s < w; ++s) chans.push_back(make_channel(s));
      gc::BatchRunner runner;
      for (auto& c : chans) runner.add(c);
      const auto outs = runner.run(stim);
      for (std::size_t s = 0; s < w; ++s) {
        auto solo = make_channel(s);
        const auto want = solo.process(stim);
        ASSERT_TRUE(wf_equal(want, outs[s])) << name << " w=" << w
                                             << " stream " << s;
      }
    }
  }
}

TEST(BatchRunnerEquivalence, LaneAssignmentInvariance) {
  // The same 9 streams, added in reversed order: each stream's bytes
  // must be unchanged — lanes are an implementation detail.
  const auto stim = stimulus();
  std::vector<gc::VariableDelayChannel> fwd, rev;
  for (std::size_t s = 0; s < 9; ++s) fwd.push_back(make_channel(s));
  for (std::size_t s = 9; s-- > 0;) rev.push_back(make_channel(s));
  gc::BatchRunner rf, rr;
  for (auto& c : fwd) rf.add(c);
  for (auto& c : rev) rr.add(c);
  const auto of = rf.run(stim);
  const auto orev = rr.run(stim);
  for (std::size_t s = 0; s < 9; ++s)
    ASSERT_TRUE(wf_equal(of[s], orev[8 - s])) << "stream " << s;
}

TEST(BatchRunnerEquivalence, SinkRunMatchesWaveformRun) {
  const auto stim = stimulus();
  std::vector<gc::FineDelayLine> a, b;
  for (std::size_t s = 0; s < 3; ++s) {
    a.push_back(make_fine(s, 0.5));
    b.push_back(make_fine(s, 0.5));
  }
  gc::BatchRunner ra, rb;
  for (auto& l : a) ra.add(l);
  for (auto& l : b) rb.add(l);
  const auto outs = ra.run(stim);
  std::vector<gm::WaveformCaptureSink> caps(3);
  std::vector<gm::ISampleSink*> sinks;
  for (auto& c : caps) sinks.push_back(&c);
  rb.run(stim, sinks);
  for (std::size_t s = 0; s < 3; ++s)
    ASSERT_TRUE(wf_equal(outs[s], caps[s].waveform())) << "stream " << s;
}

TEST(BatchRunnerEquivalence, MixedStreamKindsThrow) {
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(1));
  gc::VariableDelayChannel ch(gc::ChannelConfig{}, Rng(2));
  gc::BatchRunner r1;
  r1.add(line);
  EXPECT_THROW(r1.add(ch), std::logic_error);
  gc::BatchRunner r2;
  r2.add(ch);
  EXPECT_THROW(r2.add(line), std::logic_error);
  gc::BatchRunner empty;
  EXPECT_THROW(empty.run(gs::Waveform(0.0, 0.25, 16)), std::logic_error);
}

// ---------------------------------------------------------------------------
// Layer 3: the calibration reroute reproduces the solo clone sweep
// ---------------------------------------------------------------------------

TEST(BatchRunnerEquivalence, FineCurveMatchesSoloCloneSweep) {
  const auto stim = stimulus();
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(7));
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 5;
  o.settle_ps = 1500.0;
  const gc::DelayCalibrator cal(o);
  const auto curve = cal.measure_fine_curve(line, stim);

  // The pre-batching engine, verbatim: one solo clone per sweep point.
  gm::DelayMeterOptions mo;
  mo.settle_ps = o.settle_ps;
  std::vector<double> xs(5), ys(5);
  for (int i = 0; i < 5; ++i) {
    xs[i] = line.vctrl_max() * i / 4.0;
    gc::FineDelayLine clone = line;
    clone.fork_noise(static_cast<std::uint64_t>(i));
    clone.set_vctrl(xs[i]);
    const auto out = clone.process(stim);
    ys[i] = gm::measure_delay(stim, out, mo).mean_ps;
  }
  const double d0 = ys.front();
  for (double& y : ys) y -= d0;
  const auto want = gdelay::util::Curve(std::move(xs), std::move(ys))
                        .monotonicized();
  ASSERT_EQ(want.xs().size(), curve.xs().size());
  for (std::size_t i = 0; i < want.xs().size(); ++i) {
    ASSERT_EQ(bits(want.xs()[i]), bits(curve.xs()[i])) << i;
    ASSERT_EQ(bits(want.ys()[i]), bits(curve.ys()[i])) << i;
  }
}
