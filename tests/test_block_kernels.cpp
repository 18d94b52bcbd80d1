// The device contract: partition and lane invariance of each device's
// one pass.
//
// Every device of the delay line is written once, as a width-generic
// lane pass (analog/element.h): `w` devices, one per stream of buffers
// interleaved time-major, advanced together. Its solo process_block()
// is the w == 1 call and core::BatchRunner interleaves around the
// composites' passes, so one suite checks the whole contract. Per
// device, for every backend x width {1, 3, 4, 9} x chunk {1, 7, 1024,
// whole}: w devices, each with its own input, programming and RNG
// stream, run their lane pass in place in chunk-sized calls over a dt
// schedule with mid-run rate changes, and every stream must reproduce —
// bit for bit — its twin run alone, out of place, one call per segment.
// Elements without a lane pass run the same grid at width 1 through
// process_block(). Any tolerance here would defeat the point: the
// calibration tables, the streaming pipeline, the batched sweeps and the
// deterministic parallel campaigns all rely on it. The BatchRunner tests
// at the end check the interleaver itself against solo runs.
//
// AVX2 cases run only where the backend is usable; CI's simd job runs
// them.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analog/buffer.h"
#include "analog/coupling.h"
#include "analog/differential.h"
#include "analog/element.h"
#include "analog/primitives.h"
#include "analog/tline.h"
#include "backend/backend.h"
#include "core/batch.h"
#include "core/calibration.h"
#include "core/channel.h"
#include "core/coarse_delay.h"
#include "core/fine_delay.h"
#include "measure/delay_meter.h"
#include "measure/sinks.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "signal/waveform.h"
#include "util/fastmath.h"
#include "util/rng.h"
#include "util/units.h"

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

std::vector<const char*> backends() {
  std::vector<const char*> b{"scalar"};
  if (gb::avx2_kernels() != nullptr && gb::cpu_supports_avx2())
    b.push_back("avx2");
  return b;
}

// Selects a backend for the scope and restores the previous one.
struct BackendSelect {
  std::string prev;
  explicit BackendSelect(const char* name) : prev(gb::active().name) {
    gb::select(name);
  }
  ~BackendSelect() { gb::select(prev.c_str()); }
};

const std::vector<std::size_t> kWidths{1, 3, 4, 9};
const std::vector<std::size_t> kSolo{1};
constexpr std::size_t kWhole = 0;
constexpr std::size_t kChunks[] = {1, 7, 1024, kWhole};

// Edgy deterministic stimulus: two incommensurate tones plus a square
// wave, so limiters saturate, slew limiters hit their rails, and filters
// see both slow and fast content. Detuned per stream, so lanes that mix
// streams produce loud mismatches.
std::vector<double> stimulus(std::size_t n, std::size_t s = 0) {
  std::vector<double> v(n);
  const double f = 0.07 + 0.003 * static_cast<double>(s);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    v[i] = 0.35 * std::sin(f * t) + 0.15 * std::sin(0.011 * t + 0.5) +
           ((i / (37 + s)) % 2 ? 0.2 : -0.2);
  }
  return v;
}

struct Segment {
  std::size_t n;
  double dt;
};

// The dt schedule every device is checked against: a mid-run rate
// change in both directions, segment lengths with no common factor with
// any chunk size (1024 exceeds every segment: one call per segment).
const std::vector<Segment> kSegments{{701, 0.25}, {613, 0.4}, {509, 0.25}};
constexpr std::size_t kTotal = 701 + 613 + 509;

// Calls `pass(offset, n, dt)` over the schedule in `chunk`-sized calls.
template <typename Pass>
void over_segments(std::size_t chunk, Pass pass) {
  std::size_t off = 0;
  for (const auto& seg : kSegments) {
    const std::size_t step = chunk == kWhole ? seg.n : chunk;
    for (std::size_t o = 0; o < seg.n; o += step)
      pass(off + o, std::min(step, seg.n - o), seg.dt);
    off += seg.n;
  }
}

// The lane pass of a device without a control input.
template <typename D>
void pass_of(D* const* d, std::size_t w, const double* in, const double*,
             double* out, std::size_t n, double dt) {
  D::process_lanes(d, w, in, out, n, dt);
}

// The contract suite, instantiated once per device. `make(s)` builds
// stream s's device; `lanes(devs, w, in, vctrl, out, n, dt)` runs their
// pass. With `vctrl` set, each stream also gets a modulated control
// voltage, interleaved like its input.
template <typename Make, typename D = decltype(std::declval<Make>()(0)),
          typename Lanes = decltype(&pass_of<D>)>
void check_lanes(Make make, Lanes lanes = &pass_of<D>,
                 const std::vector<std::size_t>& widths = kWidths,
                 bool vctrl = false) {
  for (const char* backend : backends()) {
    BackendSelect sel(backend);
    for (std::size_t w : widths) {
      std::vector<double> ilv(kTotal * w), ictl(kTotal * w), want(kTotal * w);
      for (std::size_t s = 0; s < w; ++s) {
        const auto in = stimulus(kTotal, s);
        std::vector<double> ctl(kTotal), out(kTotal, -1.0);
        for (std::size_t i = 0; i < kTotal; ++i)
          ctl[i] = 0.75 + 0.7 * std::sin(0.013 * static_cast<double>(i) *
                                         static_cast<double>(s + 1));
        D solo = make(s);
        D* p = &solo;
        over_segments(kWhole, [&](std::size_t o, std::size_t n, double dt) {
          lanes(&p, 1, in.data() + o, vctrl ? ctl.data() + o : nullptr,
                out.data() + o, n, dt);
        });
        for (std::size_t i = 0; i < kTotal; ++i) {
          ilv[i * w + s] = in[i];
          ictl[i * w + s] = ctl[i];
          want[i * w + s] = out[i];
        }
      }
      for (std::size_t chunk : kChunks) {
        std::vector<D> devs;
        for (std::size_t s = 0; s < w; ++s) devs.push_back(make(s));
        std::vector<D*> ptrs;
        for (auto& d : devs) ptrs.push_back(&d);
        std::vector<double> buf = ilv;
        over_segments(chunk, [&](std::size_t o, std::size_t n, double dt) {
          lanes(ptrs.data(), w, buf.data() + o * w,
                vctrl ? ictl.data() + o * w : nullptr, buf.data() + o * w, n,
                dt);
        });
        for (std::size_t j = 0; j < buf.size(); ++j)
          ASSERT_EQ(bits(want[j]), bits(buf[j]))
              << backend << " w=" << w << " chunk=" << chunk << " stream "
              << j % w << " sample " << j / w << ": solo=" << want[j]
              << " lanes=" << buf[j];
      }
    }
  }
}

// Elements without a lane pass: process_block(), width 1 only.
template <typename D>
void solo_pass(D* const* d, std::size_t, const double* in, const double*,
               double* out, std::size_t n, double dt) {
  d[0]->process_block(in, out, n, dt);
}

template <typename D>
void check_solo(D proto) {
  check_lanes([&](std::size_t) { return proto; }, solo_pass<D>, kSolo);
}

template <typename D>
void vctrl_pass(D* const* d, std::size_t w, const double* in,
                const double* vctrl, double* out, std::size_t n, double dt) {
  D::process_lanes(d, w, in, vctrl, out, n, dt);
}

double per_stream(std::size_t s, double base, double step) {
  return base + step * static_cast<double>(s);
}

// Buffer configs whose every per-stream field differs between streams,
// so a pass that reads one stream's value for another shows.
ga::LimitingBufferConfig limiting_config(std::size_t s) {
  ga::LimitingBufferConfig c;
  c.input_gain = per_stream(s, 4.0, 0.3);
  c.input_sat_v = per_stream(s, 0.5, 0.02);
  c.f3db_ghz = per_stream(s, 9.0, 0.5);
  c.output_gain = per_stream(s, 8.0, 0.5);
  c.output_ref_v = per_stream(s, 0.2, 0.01);
  c.out_swing_v = per_stream(s, 0.4, 0.01);
  c.slew_v_per_ps = per_stream(s, 0.08, 0.005);
  c.noise_bandwidth_ghz = per_stream(s, 9.0, 0.3);
  return c;
}

ga::VgaBufferConfig vga_config(std::size_t s) {
  ga::VgaBufferConfig c;
  c.input_gain = per_stream(s, 2.5, 0.1);
  c.input_sat_v = per_stream(s, 0.5, 0.02);
  c.f3db_ghz = per_stream(s, 9.0, 0.4);
  c.output_gain = per_stream(s, 2.0, 0.1);
  c.output_ref_v = per_stream(s, 0.2, 0.01);
  c.slew_v_per_ps = per_stream(s, 0.005, 0.0003);
  c.slew_tau_lin_ps = per_stream(s, 20.0, 1.0);
  c.droop_frac = per_stream(s, 0.4, 0.02);
  c.amp_min_v = per_stream(s, 0.26, 0.005);
  c.output_pole_f3db_ghz = per_stream(s, 8.0, 0.3);
  c.noise_bandwidth_ghz = per_stream(s, 7.5, 0.3);
  return c;
}

}  // namespace

TEST(BlockKernel, SinglePoleFilter) {
  check_lanes([](std::size_t s) {
    return ga::SinglePoleFilter(per_stream(s, 6.5, 0.7));
  });
}

TEST(BlockKernel, TanhLimiter) {
  check_lanes([](std::size_t s) {
    return ga::TanhLimiter(per_stream(s, 3.0, 0.2), per_stream(s, 0.4, 0.01));
  });
}

TEST(BlockKernel, SlewRateLimiter) {
  // All three regimes: pure slew, + linear settling, + conductance leak.
  // Streams 0..3 share flags; 4..7 diverge inside one group of four
  // streams.
  check_lanes([](std::size_t s) {
    const bool lin = s < 4 || s % 2 == 0;
    const bool leak = s < 4 || s % 3 == 0;
    return ga::SlewRateLimiter(per_stream(s, 0.004, 0.0005),
                               lin ? 20.0 : 0.0, leak ? 300.0 : 0.0);
  });
}

TEST(BlockKernel, NoiseSourceBatchedDraws) {
  // No signal input. Stream 5 is switched off, so width 9 takes the
  // mixed on/off path; narrower widths draw every stream in lockstep.
  check_lanes(
      [](std::size_t s) {
        return ga::NoiseSource(s == 5 ? 0.0 : per_stream(s, 0.012, 0.001),
                               per_stream(s, 7.5, 0.4), Rng(33).fork(s));
      },
      [](ga::NoiseSource* const* d, std::size_t w, const double*,
         const double*, double* out, std::size_t n, double dt) {
        ga::NoiseSource::process_lanes(d, w, out, n, dt);
      });
}

TEST(BlockKernel, LimitingBuffer) {
  check_lanes([](std::size_t s) {
    return ga::LimitingBuffer(limiting_config(s), Rng(11).fork(s));
  });
}

TEST(BlockKernel, VariableGainBuffer) {
  check_lanes(
      [](std::size_t s) {
        ga::VariableGainBuffer vga(vga_config(s), Rng(7));
        vga.fork_noise(s);
        vga.set_vctrl(per_stream(s, 0.1, 0.15));
        return vga;
      },
      vctrl_pass<ga::VariableGainBuffer>);
}

TEST(BlockKernel, VariableGainBufferVctrlInput) {
  // A per-sample Vctrl (the jitter-injection port) per stream; a
  // modulated block leaves the stage holding its last Vctrl.
  check_lanes(
      [](std::size_t s) {
        ga::VariableGainBuffer vga(vga_config(s), Rng(7));
        vga.fork_noise(s);
        return vga;
      },
      vctrl_pass<ga::VariableGainBuffer>, kWidths, true);
  ga::VariableGainBuffer b(ga::VgaBufferConfig{}, Rng(7));
  const double in[2] = {0.1, -0.1}, ramp[2] = {0.2, 1.1};
  double out[2];
  b.process_block(in, ramp, out, 2, 0.25);
  EXPECT_EQ(b.vctrl(), 1.1);
}

TEST(BlockKernel, TransmissionLine) {
  // Stream 6 has no dispersion pole: width 9 takes the mixed-pole path.
  check_lanes([](std::size_t s) {
    ga::TransmissionLineConfig tl;
    tl.delay_ps = per_stream(s, 33.0, 4.3);
    tl.loss_db = 0.5;
    tl.dispersion_f3db_ghz = s == 6 ? 0.0 : 28.0;
    return ga::TransmissionLine(tl);
  });
}

TEST(BlockKernel, CoarseDelayBlock) {
  // Per-stream tap selection: each stream's mux sees its own tap.
  check_lanes([](std::size_t s) {
    gc::CoarseDelayBlock blk(gc::CoarseDelayConfig::prototype(), Rng(55));
    blk.fork_noise(s);
    blk.select(static_cast<int>((3 * s + 1) % 4));
    return blk;
  });
}

TEST(BlockKernel, FineDelayLine) {
  // Held (programmed) Vctrl, then a per-sample Vctrl per stream.
  const auto make = [](std::size_t s) {
    gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(77));
    line.fork_noise(s);
    line.set_vctrl(line.vctrl_max() * static_cast<double>(s) / 8.0);
    return line;
  };
  check_lanes(make, vctrl_pass<gc::FineDelayLine>);
  check_lanes(make, vctrl_pass<gc::FineDelayLine>, kWidths, true);
}

TEST(BlockKernel, VariableDelayChannel) {
  check_lanes([](std::size_t s) {
    gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(99));
    ch.fork_noise(s);
    ch.select_tap(static_cast<int>(s % 4));
    ch.set_vctrl(ch.vctrl_max() * static_cast<double>(s) / 9.0);
    return ch;
  });
}

TEST(BlockKernel, GainStage) { check_solo(ga::GainStage(1.7)); }

TEST(BlockKernel, Attenuator) { check_solo(ga::Attenuator(2.5)); }

TEST(BlockKernel, AcCoupler) { check_solo(ga::AcCoupler(0.01)); }

TEST(BlockKernel, NoiseAdder) { check_solo(ga::NoiseAdder(0.02, Rng(42))); }

TEST(BlockKernel, FractionalDelayElement) {
  check_solo(ga::FractionalDelay(13.3));
}

TEST(BlockKernel, DifferentialImbalance) {
  ga::DifferentialImbalanceConfig cfg;
  cfg.leg_skew_ps = 2.5;
  cfg.gain_mismatch_frac = 0.08;
  cfg.offset_v = 0.003;
  check_solo(ga::DifferentialImbalance(cfg));
}

TEST(BlockKernel, CascadeStageMajor) {
  // Stage-major reordering across stages with private RNGs: each noise
  // element must keep its own draw sequence even though the execution
  // order over (stage, sample) changes completely.
  check_lanes(
      [](std::size_t) {
        ga::Cascade c;
        c.emplace<ga::SinglePoleFilter>(8.0);
        c.emplace<ga::NoiseAdder>(0.015, Rng(101));
        c.emplace<ga::TanhLimiter>(2.0, 0.35);
        c.emplace<ga::NoiseAdder>(0.008, Rng(202));
        c.emplace<ga::SlewRateLimiter>(0.006, 15.0, 250.0);
        return c;
      },
      solo_pass<ga::Cascade>, kSolo);
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

// ---------------------------------------------------------------------------
// Whole-waveform process() and mixed chunkings on one object
// ---------------------------------------------------------------------------

namespace {

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

TEST(BlockKernel, InPlaceAliasingMatchesOutOfPlace) {
  // in == out is part of the contract: every check_lanes() run goes in
  // place against an out-of-place reference; here two scratch-buffer
  // users at width 1.
  check_solo(ga::NoiseAdder(0.02, Rng(9)));
  check_solo(ga::VariableGainBuffer(ga::VgaBufferConfig{}, Rng(9)));
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

// ---------------------------------------------------------------------------
// BatchRunner: the interleaver around the composites' passes
// ---------------------------------------------------------------------------

namespace {

gs::Waveform nrz_stimulus() {
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

// Each stream of a BatchRunner over `make(0..w-1)` against its solo
// process(), per backend.
template <typename Make>
void expect_runner_matches_solo(Make make, std::vector<std::size_t> widths) {
  const auto stim = nrz_stimulus();
  for (const char* name : backends()) {
    BackendSelect sel(name);
    for (std::size_t w : widths) {
      std::vector<decltype(make(0))> devs;
      for (std::size_t s = 0; s < w; ++s) devs.push_back(make(s));
      gc::BatchRunner runner;
      for (auto& d : devs) runner.add(d);
      const auto outs = runner.run(stim);
      for (std::size_t s = 0; s < w; ++s)
        ASSERT_TRUE(wf_equal(make(s).process(stim), outs[s]))
            << name << " w=" << w << " stream " << s;
    }
  }
}

}  // namespace

TEST(BatchRunnerEquivalence, FineLineMatchesSoloAnyWidthPerBackend) {
  expect_runner_matches_solo(
      [](std::size_t s) { return make_fine(s, static_cast<double>(s) / 8.0); },
      kWidths);
}

TEST(BatchRunnerEquivalence, ChannelMatchesSoloWithPerStreamProgramming) {
  // 17 leaves a partial stream group and spills LaneArray's inline
  // capacity to the heap.
  expect_runner_matches_solo(make_channel, {3, 9, 17});
}

TEST(BatchRunnerEquivalence, LaneAssignmentInvariance) {
  // The same 9 streams, added in reversed order: each stream's bytes
  // must be unchanged — lanes are an implementation detail.
  const auto stim = nrz_stimulus();
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
  const auto stim = nrz_stimulus();
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

TEST(BatchRunnerEquivalence, RejectsTheSameStreamTwice) {
  // Two lanes over one device would advance one set of state and draw
  // from one RNG twice per sample.
  const auto stim = nrz_stimulus();
  auto ch = make_channel(2);
  gc::BatchRunner rc;
  rc.add(ch);
  EXPECT_THROW(rc.add(ch), std::logic_error);
  ASSERT_EQ(rc.width(), 1u);
  EXPECT_TRUE(wf_equal(make_channel(2).process(stim), rc.run(stim)[0]));
  auto line = make_fine(2, 0.5);
  gc::BatchRunner rf;
  rf.add(line);
  EXPECT_THROW(rf.add(line), std::logic_error);
  EXPECT_EQ(rf.width(), 1u);
}

TEST(BatchRunnerEquivalence, FineCurveMatchesSoloCloneSweep) {
  const auto stim = nrz_stimulus();
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
