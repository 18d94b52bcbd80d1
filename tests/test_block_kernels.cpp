// The device contract: partition and lane invariance of each device's
// one pass.
//
// Every device of the delay line is written once, as a width-generic
// lane pass (analog/element.h): `w` devices, one per stream of buffers
// interleaved time-major, advanced together. Its solo process_block()
// is the w == 1 call and core::run_lanes interleaves around the
// composites' passes, so one suite checks the whole contract. Per
// device, for every backend x width {1, 3, 4, 9} x chunk {1, 7, 1024,
// whole}: w devices, each with its own input, programming and RNG
// stream, run their lane pass in place in chunk-sized calls over a dt
// schedule with mid-run rate changes, and every stream must reproduce —
// bit for bit — its twin run alone, out of place, one call per segment.
// Devices without a lane pass run the same grid at width 1 through
// process_block(). Any tolerance here would defeat the point: the
// calibration tables, the streaming pipeline, the batched sweeps and the
// deterministic parallel campaigns all rely on it. The fine line's stage
// schedule is also checked against an independent reference, its parts
// run stage-major by hand. The
// BatchRunnerEquivalence tests at the end check the interleaver
// (core::run_lanes) and the lane-group measurement path built on it
// (core::lane_edges, the calibration sweeps) against solo runs.
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
#include "core/board.h"
#include "core/calibration.h"
#include "core/channel.h"
#include "core/coarse_delay.h"
#include "core/fine_delay.h"
#include "core/jitter_injector.h"
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
  if (gb::avx2_kernels() != nullptr) b.push_back("avx2");
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

// Devices without a lane pass: process_block(), width 1 only.
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

// The VGA's per-sample input is its half-swing: each stream's control
// voltage goes through that stream's amplitude_for() first.
void vga_amp_pass(ga::VariableGainBuffer* const* d, std::size_t w,
                  const double* in, const double* vctrl, double* out,
                  std::size_t n, double dt) {
  std::vector<double> amp;
  if (vctrl != nullptr)
    for (std::size_t j = 0; j < n * w; ++j)
      amp.push_back(d[j % w]->amplitude_for(vctrl[j]));
  ga::VariableGainBuffer::process_lanes(
      d, w, in, vctrl != nullptr ? amp.data() : nullptr, out, n, dt);
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
  // A per-sample half-swing (the jitter-injection port) per stream: each
  // stream's control ramp mapped through its own A(Vctrl).
  check_lanes(
      [](std::size_t s) {
        ga::VariableGainBuffer vga(vga_config(s), Rng(7));
        vga.fork_noise(s);
        return vga;
      },
      vga_amp_pass, kWidths, true);
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

  // The line's one per-sample map equals each stage's own hoisted
  // amplitude(): a per-sample Vctrl that holds every stream's programmed
  // value v_s gives the held run's bytes, rails included.
  for (const char* backend : backends()) {
    BackendSelect sel(backend);
    for (std::size_t w : kWidths) {
      std::vector<gc::FineDelayLine> held, swept;
      std::vector<double> in(kTotal * w), ctl(kTotal * w);
      for (std::size_t s = 0; s < w; ++s) {
        held.push_back(make(s));
        swept.push_back(make(s));
        const auto x = stimulus(kTotal, s);
        for (std::size_t i = 0; i < kTotal; ++i) {
          in[i * w + s] = x[i];
          ctl[i * w + s] = held[s].vctrl();
        }
      }
      std::vector<gc::FineDelayLine*> hp, sp;
      for (std::size_t s = 0; s < w; ++s) {
        hp.push_back(&held[s]);
        sp.push_back(&swept[s]);
      }
      std::vector<double> want(kTotal * w), got(kTotal * w);
      over_segments(kWhole, [&](std::size_t o, std::size_t n, double dt) {
        gc::FineDelayLine::process_lanes(hp.data(), w, in.data() + o * w,
                                         nullptr, want.data() + o * w, n, dt);
        gc::FineDelayLine::process_lanes(sp.data(), w, in.data() + o * w,
                                         ctl.data() + o * w,
                                         got.data() + o * w, n, dt);
      });
      for (std::size_t j = 0; j < want.size(); ++j)
        ASSERT_EQ(bits(want[j]), bits(got[j]))
            << backend << " w=" << w << " stream " << j % w << " sample "
            << j / w << ": held=" << want[j] << " per-sample=" << got[j];
    }
  }

  // A modulated block leaves the line and every stage holding its last
  // Vctrl.
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(7));
  const double in[2] = {0.1, -0.1}, ramp[2] = {0.2, 1.1};
  double out[2];
  line.process_block(in, ramp, out, 2, 0.25);
  EXPECT_EQ(line.vctrl(), 1.1);
  for (int st = 0; st < line.n_stages(); ++st)
    EXPECT_EQ(line.stage_vctrl(st), 1.1) << "stage " << st;
}

namespace {

gc::FineDelayConfig fine_config(int stages) {
  gc::FineDelayConfig c;
  c.n_stages = stages;
  return c;
}

double held_vctrl(std::size_t s) { return 0.1 + 0.15 * static_cast<double>(s); }

// Stream s's line as the wavefront test builds it.
gc::FineDelayLine wavefront_line(int stages, std::size_t s) {
  gc::FineDelayLine line(fine_config(stages), Rng(31));
  line.fork_noise(s);
  line.set_vctrl(held_vctrl(s));
  return line;
}

// The oracle for wavefront_line(stages, s): its parts built as
// FineDelayLine's constructor builds them (the same Rng forks, in the
// same order), then each run over the whole stream through its own
// process_block(), one stage after another, before the output buffer.
// With `vctrl`, every stage reads the stage-0 map of each sample.
std::vector<double> stage_major(int stages, std::size_t s,
                                const std::vector<double>& in,
                                const std::vector<double>* vctrl, double dt) {
  const gc::FineDelayConfig cfg = fine_config(stages);
  Rng rng(31);
  ga::LimitingBuffer out(cfg.output_stage, rng.fork(999));
  std::vector<ga::VariableGainBuffer> vga;
  for (int k = 0; k < stages; ++k)
    vga.emplace_back(cfg.stage, rng.fork(static_cast<std::uint64_t>(k)));
  std::vector<double> x = in, amp;
  if (vctrl != nullptr)
    for (double v : *vctrl) amp.push_back(vga[0].amplitude_for(v));
  for (auto& st : vga) {
    st.fork_noise(s);
    st.set_vctrl(held_vctrl(s));
    st.process_block(x.data(), vctrl != nullptr ? amp.data() : nullptr,
                     x.data(), x.size(), dt);
  }
  out.fork_noise(s);
  out.process_block(x.data(), x.data(), x.size(), dt);
  return x;
}

}  // namespace

TEST(BlockKernel, FineDelayLineMatchesStageMajorReference) {
  // Below four lines, FineDelayLine::process_lanes runs its stages as a
  // wavefront over 64-sample sub-blocks; the result must be the bytes of
  // running each stage over the whole stream in turn. Call lengths:
  // single samples, a few, a prime, either side of one sub-block, a full
  // block and the whole stream in one call, each in place and not, with
  // a held and a per-sample Vctrl.
  constexpr std::size_t kN = 1300;
  constexpr double kDt = 0.25;
  const std::size_t lengths[] = {1, 7, 97, 63, 65, 1024, kN};
  const std::vector<std::size_t> widths{1, 2, 3, 4, 9};
  for (const char* backend : backends()) {
    BackendSelect sel(backend);
    for (int stages : {1, 2, 4, 7}) {
      for (bool modulated : {false, true}) {
        std::vector<std::vector<double>> in, ctl, want;
        for (std::size_t s = 0; s < widths.back(); ++s) {
          in.push_back(stimulus(kN, s));
          ctl.emplace_back(kN);
          for (std::size_t i = 0; i < kN; ++i)
            ctl[s][i] = 0.75 + 0.7 * std::sin(0.013 * static_cast<double>(i) *
                                               static_cast<double>(s + 1));
          want.push_back(stage_major(stages, s, in[s],
                                     modulated ? &ctl[s] : nullptr, kDt));
        }
        for (std::size_t w : widths) {
          std::vector<double> ilv(kN * w), ictl(kN * w);
          for (std::size_t s = 0; s < w; ++s)
            for (std::size_t i = 0; i < kN; ++i) {
              ilv[i * w + s] = in[s][i];
              ictl[i * w + s] = ctl[s][i];
            }
          for (std::size_t len : lengths) {
            for (bool in_place : {false, true}) {
              std::vector<gc::FineDelayLine> lines;
              for (std::size_t s = 0; s < w; ++s)
                lines.push_back(wavefront_line(stages, s));
              std::vector<gc::FineDelayLine*> ptrs;
              for (auto& l : lines) ptrs.push_back(&l);
              std::vector<double> buf = ilv, out(kN * w, -1.0);
              double* dst = in_place ? buf.data() : out.data();
              for (std::size_t o = 0; o < kN; o += len)
                gc::FineDelayLine::process_lanes(
                    ptrs.data(), w, buf.data() + o * w,
                    modulated ? ictl.data() + o * w : nullptr, dst + o * w,
                    std::min(len, kN - o), kDt);
              if (!in_place) {
                ASSERT_EQ(buf, ilv) << "input overwritten";
              }
              for (std::size_t j = 0; j < kN * w; ++j)
                ASSERT_EQ(bits(want[j % w][j / w]), bits(dst[j]))
                    << backend << " stages=" << stages << " w=" << w
                    << " len=" << len << (modulated ? " per-sample" : " held")
                    << (in_place ? " in place" : " out of place")
                    << ": stream " << j % w << " sample " << j / w;
            }
          }
        }
      }
    }
  }
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

TEST(BlockKernel, Attenuator) { check_solo(ga::Attenuator(2.5)); }

TEST(BlockKernel, AcCoupler) { check_solo(ga::AcCoupler(0.01)); }

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

TEST(BlockKernel, JitterInjector) {
  // Gaussian noise plus SJ on Vctrl: the sources, the coupler and the
  // fine line run as block passes behind one process_block().
  gc::JitterInjectorConfig cfg;
  cfg.sj_pp_v = 0.2;
  cfg.sj_freq_ghz = 0.05;
  check_solo(gc::JitterInjector(cfg, Rng(61)));
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

// One sample through a device: process_block() with n == 1.
template <typename E>
double step(E& e, double vin, double dt_ps) {
  double out;
  e.process_block(&vin, &out, 1, dt_ps);
  return out;
}

// Runs `e` over `in` one sample at a time.
template <typename E>
std::vector<double> run_chunk1(E& e, const std::vector<double>& in,
                               double dt) {
  std::vector<double> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = step(e, in[i], dt);
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
  check_solo(ga::LimitingBuffer(ga::LimitingBufferConfig{}, Rng(9)));
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
// run_lanes / lane_edges: the interleaver around the composites' passes
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

template <typename Device>
std::vector<Device*> pointers(std::vector<Device>& devs) {
  std::vector<Device*> p;
  for (auto& d : devs) p.push_back(&d);
  return p;
}

// run_lanes() over `devs`, one capture sink each: the output waveforms.
template <typename Device>
std::vector<gs::Waveform> run_captured(std::vector<Device>& devs,
                                       const gs::Waveform& stim) {
  std::vector<gm::WaveformCaptureSink> caps(devs.size());
  std::vector<gm::ISampleSink*> sinks;
  for (auto& c : caps) sinks.push_back(&c);
  gc::run_lanes(pointers(devs), stim, sinks);
  std::vector<gs::Waveform> outs;
  for (auto& c : caps) outs.push_back(c.take_waveform());
  return outs;
}

// Each device of a run_lanes() over `make(0..w-1)` against its solo
// process(), per backend.
template <typename Make>
void expect_runner_matches_solo(Make make, std::vector<std::size_t> widths) {
  const auto stim = nrz_stimulus();
  for (const char* name : backends()) {
    BackendSelect sel(name);
    for (std::size_t w : widths) {
      std::vector<decltype(make(0))> devs;
      for (std::size_t s = 0; s < w; ++s) devs.push_back(make(s));
      const auto outs = run_captured(devs, stim);
      for (std::size_t s = 0; s < w; ++s)
        ASSERT_TRUE(wf_equal(make(s).process(stim), outs[s]))
            << name << " w=" << w << " stream " << s;
    }
  }
}

void expect_same_bits(const std::vector<double>& want,
                      const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(bits(want[i]), bits(got[i])) << i;
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
  // The same 9 devices, listed in reversed order: each device's bytes
  // must be unchanged — lanes are an implementation detail.
  const auto stim = nrz_stimulus();
  std::vector<gc::VariableDelayChannel> fwd, rev;
  for (std::size_t s = 0; s < 9; ++s) fwd.push_back(make_channel(s));
  for (std::size_t s = 9; s-- > 0;) rev.push_back(make_channel(s));
  const auto of = run_captured(fwd, stim);
  const auto orev = run_captured(rev, stim);
  for (std::size_t s = 0; s < 9; ++s)
    ASSERT_TRUE(wf_equal(of[s], orev[8 - s])) << "stream " << s;
}

TEST(BatchRunnerEquivalence, MixedStreamKindsThrow) {
  // Channels and bare fine lines no longer mix at all: the device list
  // is one std::vector<Device*>. What is left to check at run time
  // throws before any device runs.
  const gs::Waveform stim(0.0, 0.25, 16);
  gc::FineDelayLine four(gc::FineDelayConfig{}, Rng(1));
  gc::FineDelayConfig two_cfg;
  two_cfg.n_stages = 2;
  gc::FineDelayLine two(two_cfg, Rng(2));
  gm::WaveformCaptureSink a, b;
  EXPECT_THROW(gc::run_lanes(std::vector<gc::FineDelayLine*>{&four, &two},
                             stim, {&a, &b}),
               std::logic_error);
  EXPECT_THROW(gc::run_lanes(std::vector<gc::FineDelayLine*>{}, stim, {}),
               std::logic_error);
  EXPECT_THROW(gc::run_lanes(std::vector<gc::VariableDelayChannel*>{}, stim,
                             {}),
               std::logic_error);
  EXPECT_THROW(
      gc::run_lanes(std::vector<gc::FineDelayLine*>{&four}, stim, {&a, &b}),
      std::invalid_argument);
}

TEST(BatchRunnerEquivalence, RejectsTheSameStreamTwice) {
  // Two lanes over one device would advance one set of state and draw
  // from one RNG twice per sample. The check comes first, so the device
  // is untouched and still runs like its solo twin.
  const auto stim = nrz_stimulus();
  gm::WaveformCaptureSink a, b;
  auto ch = make_channel(2);
  EXPECT_THROW(gc::run_lanes(std::vector<gc::VariableDelayChannel*>{&ch, &ch},
                             stim, {&a, &b}),
               std::logic_error);
  gc::run_lanes(std::vector<gc::VariableDelayChannel*>{&ch}, stim, {&a});
  EXPECT_TRUE(wf_equal(make_channel(2).process(stim), a.waveform()));
  auto line = make_fine(2, 0.5);
  EXPECT_THROW(gc::run_lanes(std::vector<gc::FineDelayLine*>{&line, &line},
                             stim, {&a, &b}),
               std::logic_error);
}

TEST(BatchRunnerEquivalence, LaneEdgesMatchSoloExtraction) {
  // 9 devices: two full groups of four and a partial one. Each device's
  // edges are extract_edges() of its solo output, set up as
  // measure_delay sets it up.
  const auto stim = nrz_stimulus();
  gm::CrossingOptions mo;
  mo.settle_ps = 1500.0;
  std::vector<gc::VariableDelayChannel> devs;
  for (std::size_t s = 0; s < 9; ++s) devs.push_back(make_channel(s));
  const auto got = gc::lane_edges(pointers(devs), stim, mo);
  ASSERT_EQ(got.size(), 9u);
  for (std::size_t s = 0; s < 9; ++s) {
    const auto out = make_channel(s).process(stim);
    gs::EdgeExtractOptions eo;
    eo.threshold_v = 0.0;
    eo.hysteresis_v = 0.1;
    eo.t_min_ps = out.t0_ps() + 1500.0;
    const auto want = gs::extract_edges(out, eo);
    ASSERT_GT(want.size(), 10u) << s;
    ASSERT_EQ(want.size(), got[s].size()) << s;
    for (std::size_t e = 0; e < want.size(); ++e) {
      ASSERT_EQ(bits(want[e].t_ps), bits(got[s][e].t_ps)) << s << "/" << e;
      ASSERT_EQ(want[e].rising, got[s][e].rising) << s << "/" << e;
    }
  }
}

TEST(BatchRunnerEquivalence, LaneEdgesRejectTheSameDeviceTwiceAcrossGroups) {
  // Device 0 again at index 5, in the second group: two pool tasks would
  // race on it. The whole list is checked before any task starts, so
  // device 0 still runs like its solo twin afterwards.
  const auto stim = nrz_stimulus();
  std::vector<gc::FineDelayLine> devs;
  for (std::size_t s = 0; s < 5; ++s)
    devs.push_back(make_fine(s, static_cast<double>(s) / 8.0));
  auto lanes = pointers(devs);
  lanes.push_back(&devs[0]);
  EXPECT_THROW(gc::lane_edges(lanes, stim, gm::CrossingOptions{}),
               std::logic_error);
  for (std::size_t s = 0; s < 5; ++s)
    ASSERT_TRUE(wf_equal(make_fine(s, static_cast<double>(s) / 8.0)
                             .process(stim),
                         devs[s].process(stim)))
        << "device " << s;
}

TEST(BatchRunnerEquivalence, CalibrateLatencyMatchesSoloTapClones) {
  // calibrate()'s per-tap runs against the pre-batching engine: one solo
  // clone per tap at Vctrl = 0, on noise stream 100 + tap.
  const auto stim = nrz_stimulus();
  const auto ch = make_channel(5);
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 3;
  o.settle_ps = 1500.0;
  const auto cal = gc::DelayCalibrator(o).calibrate(ch, stim);

  gm::CrossingOptions mo;
  mo.settle_ps = o.settle_ps;
  std::vector<double> latency(4);
  for (int tap = 0; tap < 4; ++tap) {
    gc::VariableDelayChannel clone = ch;
    clone.fork_noise(100 + static_cast<std::uint64_t>(tap));
    clone.select_tap(tap);
    clone.set_vctrl(0.0);
    latency[static_cast<std::size_t>(tap)] =
        gm::measure_delay(stim, clone.process(stim), mo).mean_ps;
  }
  EXPECT_EQ(bits(latency[0]), bits(cal.base_latency_ps));
  std::vector<double> offsets;
  for (double l : latency) offsets.push_back(l - latency[0]);
  expect_same_bits(offsets, std::vector<double>(cal.tap_offset_ps.begin(),
                                                cal.tap_offset_ps.end()));
}

TEST(BatchRunnerEquivalence, PeriodicRangeMatchesSoloPhaseSweep) {
  // measure_fine_range_periodic() against solo clones measured with
  // measure_phase_delay() and unwrapped with wrap_delay().
  gs::SynthConfig sc;
  const auto clk = gs::synthesize_clock(2.0, 60, sc);
  const double ui = clk.unit_interval_ps;
  const gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(13));
  gc::DelayCalibrator::Options o;
  o.settle_ps = 1500.0;
  constexpr int kSteps = 5;
  const double got = gc::DelayCalibrator(o).measure_fine_range_periodic(
      line, clk.wf, ui, kSteps);

  gm::CrossingOptions mo;
  mo.settle_ps = o.settle_ps;
  double want = 0.0, prev = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    gc::FineDelayLine clone = line;
    clone.fork_noise(static_cast<std::uint64_t>(i));
    clone.set_vctrl(line.vctrl_max() * i / kSteps);
    const double phase =
        gm::measure_phase_delay(clk.wf, clone.process(clk.wf), ui, mo);
    if (i > 0) want += gm::wrap_delay(phase - prev, ui);
    prev = phase;
  }
  EXPECT_GT(want, 1.0);
  EXPECT_EQ(bits(want), bits(got));
}

TEST(BatchRunnerEquivalence, CalibrateThrowsWhenSettleOutlastsStimulus) {
  // No stimulus edge survives the settle window: the first sweep point
  // fails the pairing, with the error type the per-clone code had.
  const auto stim = nrz_stimulus();
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 3;
  o.settle_ps = stim.duration_ps() + 1000.0;
  try {
    (void)gc::DelayCalibrator(o).calibrate(make_channel(0), stim);
    ADD_FAILURE() << "calibrate() accepted a stimulus with no edges";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no edges to compare"),
              std::string::npos)
        << e.what();
  }
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
  gm::CrossingOptions mo;
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

namespace {

// The edges measure_delay() pairs on a whole waveform (delay_edges), for
// comparison with lane_edges().
void expect_same_edges(const std::vector<gs::Edge>& want,
                       const std::vector<gs::Edge>& got,
                       const std::string& where) {
  ASSERT_GT(want.size(), 10u) << where;
  ASSERT_EQ(want.size(), got.size()) << where;
  for (std::size_t e = 0; e < want.size(); ++e) {
    ASSERT_EQ(bits(want[e].t_ps), bits(got[e].t_ps)) << where << "/" << e;
    ASSERT_EQ(want[e].rising, got[e].rising) << where << "/" << e;
  }
}

gc::VariableDelayChannel make_two_stage_channel(std::size_t s) {
  gc::ChannelConfig cfg = gc::ChannelConfig::prototype();
  cfg.fine.n_stages = 2;
  gc::VariableDelayChannel ch(cfg, Rng(31));
  ch.fork_noise(s);
  ch.select_tap(static_cast<int>((s + 1) % 4));
  ch.set_vctrl(ch.vctrl_max() * static_cast<double>(s) / 7.0);
  return ch;
}

}  // namespace

TEST(BatchRunnerEquivalence, LaneEdgesTakeOneStimulusPerDevice) {
  // 6 devices (a full group and a partial one), each with its own
  // waveform: every one shifted to its own t0 (a bus lane's launch
  // offset), device 3's with its own RJ draws. Each device's edges must
  // be delay_edges() of its solo run on its stimulus.
  gs::SynthConfig sc;
  sc.rate_gbps = 3.2;
  std::vector<gs::Waveform> stims;
  for (std::size_t s = 0; s < 6; ++s) {
    if (s == 3) {
      gs::SynthConfig rj = sc;
      rj.rj_sigma_ps = 1.5;
      Rng rng(17);
      stims.push_back(gs::synthesize_nrz(gs::prbs(7, 48), rj, &rng).wf);
    } else {
      stims.push_back(nrz_stimulus());
    }
    stims.back().shift(-40.0 + 23.5 * static_cast<double>(s));
  }
  std::vector<const gs::Waveform*> ptrs;
  for (const auto& w : stims) ptrs.push_back(&w);
  gm::CrossingOptions mo;
  mo.settle_ps = 1500.0;
  std::vector<gc::VariableDelayChannel> devs;
  for (std::size_t s = 0; s < 6; ++s) devs.push_back(make_channel(s));
  const auto got = gc::lane_edges(pointers(devs), ptrs, mo);
  ASSERT_EQ(got.size(), 6u);
  for (std::size_t s = 0; s < 6; ++s)
    expect_same_edges(gm::delay_edges(make_channel(s).process(stims[s]), mo),
                      got[s], "device " + std::to_string(s));

  // A dt mismatch, a length mismatch and a wrong stimulus count throw
  // before any device runs: each still runs like its solo twin.
  std::vector<gc::VariableDelayChannel> fresh;
  for (std::size_t s = 0; s < 6; ++s) fresh.push_back(make_channel(s));
  const auto& s0 = stims[0].samples();
  const gs::Waveform other_dt(0.0, stims[0].dt_ps() * 2.0, s0);
  const gs::Waveform shorter(0.0, stims[0].dt_ps(),
                             std::vector<double>(s0.begin(), s0.end() - 1));
  for (const gs::Waveform* bad : {&other_dt, &shorter}) {
    auto list = ptrs;
    list[4] = bad;
    EXPECT_THROW(gc::lane_edges(pointers(fresh), list, mo),
                 std::invalid_argument);
  }
  EXPECT_THROW(gc::lane_edges(pointers(fresh),
                              std::vector<const gs::Waveform*>(
                                  ptrs.begin(), ptrs.end() - 1),
                              mo),
               std::invalid_argument);
  for (std::size_t s = 0; s < 6; ++s)
    ASSERT_TRUE(wf_equal(make_channel(s).process(stims[s]),
                         fresh[s].process(stims[s])))
        << "device " << s;
}

TEST(BatchRunnerEquivalence, LaneEdgesMixStageCounts) {
  // 4- and 2-stage channels alternating in one list: lane_edges() groups
  // each stage count apart, in list order, and returns list order.
  // (run_lanes() itself still rejects a mixed group: MixedStreamKindsThrow.)
  const auto stim = nrz_stimulus();
  gm::CrossingOptions mo;
  mo.settle_ps = 1500.0;
  const auto make = [](std::size_t s) {
    return s % 2 == 0 ? make_channel(s) : make_two_stage_channel(s);
  };
  std::vector<gc::VariableDelayChannel> devs;
  for (std::size_t s = 0; s < 11; ++s) devs.push_back(make(s));
  const auto got = gc::lane_edges(pointers(devs), stim, mo);
  ASSERT_EQ(got.size(), 11u);
  for (std::size_t s = 0; s < 11; ++s)
    expect_same_edges(gm::delay_edges(make(s).process(stim), mo), got[s],
                      "device " + std::to_string(s));
}

TEST(BatchRunnerEquivalence, BoardCalibrationMatchesSoloClones) {
  // calibrate() over a board — 3 channels with process variation and a
  // 2-stage one, each left programmed off its minimum — against the
  // pre-batching engine, one solo clone per sweep point and per tap.
  const auto stim = nrz_stimulus();
  gc::DelayBoardConfig bcfg;
  bcfg.n_channels = 3;
  gc::DelayBoard board(bcfg, Rng(5));
  std::vector<gc::VariableDelayChannel> chans;
  for (int c = 0; c < board.n_channels(); ++c)
    chans.push_back(board.channel(c));
  chans.push_back(make_two_stage_channel(2));
  for (std::size_t c = 0; c < chans.size(); ++c) {
    chans[c].select_tap(static_cast<int>(3 - c));
    chans[c].set_vctrl(chans[c].vctrl_max() * 0.3);
  }
  const auto before = chans;
  gc::DelayCalibrator::Options o;
  o.n_vctrl_points = 4;
  o.settle_ps = 1500.0;
  const auto cals = gc::DelayCalibrator(o).calibrate(chans, stim);
  ASSERT_EQ(cals.size(), chans.size());

  gm::CrossingOptions mo;
  mo.settle_ps = o.settle_ps;
  for (std::size_t c = 0; c < chans.size(); ++c) {
    const gc::VariableDelayChannel& ch = before[c];
    std::vector<double> xs(4), ys(4);
    for (int i = 0; i < 4; ++i) {
      xs[i] = ch.vctrl_max() * i / 3.0;
      gc::VariableDelayChannel clone = ch;
      clone.select_tap(0);
      clone.fork_noise(static_cast<std::uint64_t>(i));
      clone.set_vctrl(xs[i]);
      ys[i] = gm::measure_delay(stim, clone.process(stim), mo).mean_ps;
    }
    const double d0 = ys.front();
    for (double& y : ys) y -= d0;
    const auto curve = gdelay::util::Curve(std::move(xs), std::move(ys))
                           .monotonicized();
    std::vector<double> latency(4);
    for (int tap = 0; tap < 4; ++tap) {
      gc::VariableDelayChannel clone = ch;
      clone.fork_noise(100 + static_cast<std::uint64_t>(tap));
      clone.select_tap(tap);
      clone.set_vctrl(0.0);
      latency[static_cast<std::size_t>(tap)] =
          gm::measure_delay(stim, clone.process(stim), mo).mean_ps;
    }
    SCOPED_TRACE("channel " + std::to_string(c));
    expect_same_bits(curve.xs(), cals[c].fine_curve.xs());
    expect_same_bits(curve.ys(), cals[c].fine_curve.ys());
    EXPECT_EQ(bits(latency[0]), bits(cals[c].base_latency_ps));
    for (std::size_t tap = 0; tap < 4; ++tap)
      EXPECT_EQ(bits(latency[tap] - latency[0]),
                bits(cals[c].tap_offset_ps[tap]))
          << "tap " << tap;
    // Untouched: the same programming, and the same noise streams.
    EXPECT_EQ(chans[c].selected_tap(), ch.selected_tap());
    EXPECT_EQ(bits(chans[c].vctrl()), bits(ch.vctrl()));
    auto twin = ch;
    EXPECT_TRUE(wf_equal(twin.process(stim), chans[c].process(stim)));
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
    out = step(line, t, 0.5);
  }
  EXPECT_NEAR(out, t - delay, 1e-9);
  // Switch dt mid-run; the very next outputs must continue the ramp.
  for (int i = 0; i < 4; ++i) {
    t += 0.25;
    out = step(line, t, 0.25);
    // Linear interpolation on a linear ramp is exact up to rounding;
    // the old behavior was off by ~delay (10 ps) here.
    ASSERT_NEAR(out, t - delay, 1e-6) << "step " << i << " after dt change";
  }
  // And again going coarser.
  for (int i = 0; i < 4; ++i) {
    t += 1.0;
    out = step(line, t, 1.0);
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
    (void)step(line, v(t), 0.25);
  }
  double worst = 0.0;
  for (int i = 0; i < 40; ++i) {
    t += 0.1;
    const double out = step(line, v(t), 0.1);
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
