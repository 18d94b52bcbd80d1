// Byte-identity of the streaming fused-pipeline executor.
//
// The streaming path (SampleSource -> Pipeline stages -> ISampleSinks)
// is contractually an optimization, never a semantic fork: at ANY chunk
// size it must produce bit-for-bit the doubles of the materializing path
// (synthesize -> process() -> whole-waveform measurement) — same
// samples, same edge times, same folded eye counts, same RNG draw
// order. These tests run both paths over identically seeded twins and
// compare raw bit patterns at chunk sizes from 1 sample to the whole
// waveform, with particular attention to measurement state that spans
// chunk seams (the edge locator's last on-side sample and the one after
// it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "analog/element.h"
#include "analog/primitives.h"
#include "core/channel.h"
#include "core/jitter_injector.h"
#include "core/pipeline.h"
#include "measure/delay_meter.h"
#include "measure/eye.h"
#include "measure/jitter.h"
#include "measure/sinks.h"
#include "signal/edges.h"
#include "signal/pattern.h"
#include "signal/stream.h"
#include "signal/synth.h"
#include "signal/waveform.h"
#include "util/rng.h"
#include "pinned_digest.h"

namespace ga = gdelay::analog;
namespace gc = gdelay::core;
namespace gm = gdelay::meas;
namespace gs = gdelay::sig;
namespace gt = gdelay::test;
using gdelay::util::Rng;

namespace {

// The chunkings every streaming result must be invariant under: sample
// by sample, an awkward prime, the block-kernel unit, a big chunk, and
// (via a chunk larger than any test waveform) one single read.
const std::size_t kChunks[] = {1, 7, 64, ga::kBlockSamples, 4096, 1u << 22};

void expect_bytes_equal(const std::vector<double>& a,
                        const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }
}

void expect_waveforms_identical(const gs::Waveform& a, const gs::Waveform& b,
                                const char* what) {
  EXPECT_EQ(a.t0_ps(), b.t0_ps()) << what;
  EXPECT_EQ(a.dt_ps(), b.dt_ps()) << what;
  expect_bytes_equal(a.samples(), b.samples(), what);
}

void expect_edges_identical(const std::vector<gs::Edge>& a,
                            const std::vector<gs::Edge>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i].t_ps, &b[i].t_ps, sizeof(double)), 0)
        << what << " edge " << i;
    EXPECT_EQ(a[i].rising, b[i].rising) << what << " edge " << i;
  }
}

void expect_jitter_identical(const gm::JitterReport& a,
                             const gm::JitterReport& b, const char* what) {
  EXPECT_EQ(a.n_edges, b.n_edges) << what;
  EXPECT_EQ(std::memcmp(&a.grid_phase_ps, &b.grid_phase_ps, sizeof(double)), 0)
      << what;
  EXPECT_EQ(std::memcmp(&a.tj_pp_ps, &b.tj_pp_ps, sizeof(double)), 0) << what;
  EXPECT_EQ(std::memcmp(&a.rj_rms_ps, &b.rj_rms_ps, sizeof(double)), 0) << what;
  EXPECT_EQ(std::memcmp(&a.dj_pp_ps, &b.dj_pp_ps, sizeof(double)), 0) << what;
  expect_bytes_equal(a.residuals_ps, b.residuals_ps, what);
}

void expect_eyes_identical(const gm::EyeDiagram& a, const gm::EyeDiagram& b,
                           const char* what) {
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(a.rows(), b.rows()) << what;
  EXPECT_EQ(a.total(), b.total()) << what;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      ASSERT_EQ(a.count(c, r), b.count(c, r))
          << what << " col " << c << " row " << r;
}

gs::SynthConfig jittery_config() {
  gs::SynthConfig cfg;
  cfg.rate_gbps = 6.4;
  cfg.rise_time_ps = 30.0;
  cfg.dt_ps = 0.25;
  cfg.rj_sigma_ps = 1.2;
  cfg.dj_pp_ps = 3.0;
  return cfg;
}

// Streams `wf` through the extractor in chunks of `chunk`.
std::vector<gs::Edge> chunked_edges(const gs::Waveform& wf,
                                    const gs::EdgeExtractOptions& opt,
                                    std::size_t chunk) {
  gs::StreamingEdgeExtractor ex(wf.t0_ps(), wf.dt_ps(), opt);
  const double* p = wf.samples().data();
  for (std::size_t o = 0; o < wf.size(); o += chunk)
    ex.consume(p + o, std::min(chunk, wf.size() - o));
  return ex.take_edges();
}

// The crossing locator as it was before it kept two samples: a history
// window pruned at every sample on the state's side of the threshold,
// and a backscan from the flip to the nearest pair straddling the
// threshold, floored at the window's first sample. The oracle of
// StreamingEdges.TwoSampleLocatorMatchesHistoryBackscan.
class BackscanExtractor {
 public:
  BackscanExtractor(double t0_ps, double dt_ps,
                    const gs::EdgeExtractOptions& opt)
      : t0_(t0_ps),
        dt_(dt_ps),
        th_(opt.threshold_v),
        hy_(std::max(opt.hysteresis_v, 0.0) / 2.0),
        t_min_(opt.t_min_ps) {}

  void consume(const double* samples, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      const double cur = samples[k];
      const std::size_t g = n_seen_++;
      hist_.push_back(cur);
      if (g == 0) {
        if (cur > th_ + hy_) state_ = 1;
        else if (cur < th_ - hy_) state_ = -1;
      } else {
        int new_state = state_;
        if (cur > th_ + hy_) new_state = 1;
        else if (cur < th_ - hy_) new_state = -1;
        if (new_state != state_ && new_state != 0 && state_ != 0) {
          const bool rising = new_state > 0;
          const std::size_t floor = base_ + 1;
          std::size_t j = g;
          while (j > floor) {
            const double a = hist_[j - 1 - base_], b = hist_[j - base_];
            if ((rising && a <= th_ && b > th_) ||
                (!rising && a >= th_ && b < th_))
              break;
            --j;
          }
          const double a = hist_[j - 1 - base_], b = hist_[j - base_];
          double t;
          if (b == a) {
            t = t0_ + dt_ * static_cast<double>(j);
          } else {
            const double frac = (th_ - a) / (b - a);
            t = t0_ + dt_ * static_cast<double>(j - 1) + frac * dt_;
          }
          if (t >= t_min_) edges.push_back({t, rising});
        }
        state_ = new_state;
      }
      if (state_ == 0 || (state_ == 1 && cur >= th_) ||
          (state_ == -1 && cur <= th_)) {
        if (g > base_) {
          hist_.erase(hist_.begin(),
                      hist_.begin() + static_cast<std::ptrdiff_t>(g - base_));
          base_ = g;
        }
      }
    }
  }

  std::vector<gs::Edge> edges;

 private:
  double t0_, dt_, th_, hy_, t_min_;
  int state_ = 0;
  std::size_t n_seen_ = 0;
  std::vector<double> hist_;
  std::size_t base_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Sources

TEST(StreamingSynth, PlanMatchesSynthesize) {
  Rng rng_a(77), rng_b(77);
  const auto bits = gs::prbs(7, 300, 1);
  const auto ref = gs::synthesize_nrz(bits, jittery_config(), &rng_a);
  auto plan = gs::plan_nrz(bits, jittery_config(), &rng_b);

  expect_bytes_equal(plan.ideal_edges_ps, ref.ideal_edges_ps, "ideal edges");
  expect_bytes_equal(plan.actual_edges_ps, ref.actual_edges_ps, "actual edges");
  EXPECT_EQ(plan.unit_interval_ps, ref.unit_interval_ps);
  expect_waveforms_identical(gs::render(plan), ref.wf, "rendered plan");

  // Planning consumes the same RNG draws as synthesis did.
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
}

TEST(StreamingSynth, RzAndClockPlansMatch) {
  // The paper's "RZ clock" stimulus (Figs. 14-15) is synthesize_clock's
  // square wave.
  Rng rng_c(9), rng_d(9);
  const auto cref = gs::synthesize_clock(3.4, 200, jittery_config(), &rng_c);
  auto cplan = gs::plan_clock(3.4, 200, jittery_config(), &rng_d);
  expect_waveforms_identical(gs::render(cplan), cref.wf, "clock plan");
  expect_bytes_equal(cplan.actual_edges_ps, cref.actual_edges_ps,
                     "clock edges");
}

TEST(StreamingSynth, SynthSourceChunkInvariant) {
  Rng rng(123);
  auto plan = gs::plan_nrz(gs::prbs(7, 300, 1), jittery_config(), &rng);
  const gs::Waveform ref = gs::render(plan);

  gs::SynthSource src(std::move(plan));
  EXPECT_EQ(src.size(), ref.size());
  EXPECT_EQ(src.t0_ps(), ref.t0_ps());
  EXPECT_EQ(src.dt_ps(), ref.dt_ps());

  for (std::size_t chunk : kChunks) {
    src.rewind();
    std::vector<double> got(ref.size());
    std::size_t pos = 0, n;
    while ((n = src.read(got.data() + pos, chunk)) > 0) pos += n;
    EXPECT_EQ(pos, ref.size()) << "chunk " << chunk;
    expect_bytes_equal(got, ref.samples(), "SynthSource samples");
  }
}

TEST(StreamingSynth, WaveformSourceReplays) {
  Rng rng(3);
  const auto res = gs::synthesize_nrz(gs::prbs(7, 64, 2), jittery_config(), &rng);
  gs::WaveformSource src(res.wf);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{13}, res.wf.size()}) {
    src.rewind();
    std::vector<double> got(res.wf.size());
    std::size_t pos = 0, n;
    while ((n = src.read(got.data() + pos, chunk)) > 0) pos += n;
    EXPECT_EQ(pos, res.wf.size());
    expect_bytes_equal(got, res.wf.samples(), "WaveformSource samples");
  }
}

// ---------------------------------------------------------------------------
// Chunk-seam edge extraction

TEST(StreamingEdges, ChunkInvariantOnJitteredData) {
  Rng rng(2026);
  const auto res =
      gs::synthesize_nrz(gs::prbs(7, 200, 5), jittery_config(), &rng);
  gs::EdgeExtractOptions opt;
  opt.hysteresis_v = 0.1;
  const auto ref = gs::extract_edges(res.wf, opt);
  ASSERT_GT(ref.size(), 50u);
  for (std::size_t chunk : kChunks)
    expect_edges_identical(chunked_edges(res.wf, opt, chunk), ref,
                           "jittered data edges");
}

TEST(StreamingEdges, EdgeStraddlingEverySeam) {
  // A slow ramp crossing the threshold: at chunk size 1 every seam falls
  // inside the transition, so the backscan must reach across chunks.
  std::vector<double> v;
  for (int cyc = 0; cyc < 8; ++cyc) {
    for (int i = 0; i < 40; ++i) v.push_back(-0.4 + 0.02 * i);  // slow rise
    for (int i = 0; i < 40; ++i) v.push_back(0.4 - 0.02 * i);   // slow fall
  }
  const gs::Waveform wf(0.0, 1.0, std::move(v));
  gs::EdgeExtractOptions opt;
  opt.hysteresis_v = 0.2;
  const auto ref = gs::extract_edges(wf, opt);
  ASSERT_GE(ref.size(), 14u);
  for (std::size_t chunk : kChunks)
    expect_edges_identical(chunked_edges(wf, opt, chunk), ref, "slow ramp");
}

TEST(StreamingEdges, RuntPulsesAcrossSeams) {
  // Runts that poke just past the threshold but stay inside the
  // hysteresis band must not fire at any chunking; full-size pulses
  // around them must. Also exercises the dip-below-threshold-without-
  // flip path of the history pruning.
  std::vector<double> v(600, -0.5);
  auto pulse = [&](std::size_t at, double amp, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) v[at + i] = amp;
  };
  pulse(50, 0.5, 40);    // real pulse
  pulse(130, 0.04, 3);   // runt: above th, inside hysteresis band
  pulse(180, 0.5, 40);   // real pulse
  pulse(260, -0.04, 5);  // dip while low: no crossing at all
  pulse(300, 0.5, 2);    // narrow but full-swing: real edges
  pulse(400, 0.5, 40);   // real pulse
  const gs::Waveform wf(0.0, 1.0, std::move(v));
  gs::EdgeExtractOptions opt;
  opt.hysteresis_v = 0.2;
  const auto ref = gs::extract_edges(wf, opt);
  ASSERT_EQ(ref.size(), 8u);  // four full-swing pulses, two edges each
  for (std::size_t chunk : kChunks)
    expect_edges_identical(chunked_edges(wf, opt, chunk), ref, "runt pulses");
}

TEST(StreamingEdges, HoverNearThresholdChunkInvariant) {
  // Signal chattering inside the hysteresis band between real crossings:
  // the no-prune stretches span many seams at small chunk sizes.
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) {
    const double wob = 0.08 * ((i % 7) - 3) / 3.0;   // inside the band
    const double slow = ((i / 100) % 2) ? 0.5 : -0.5;  // real square wave
    v.push_back(slow * ((i % 100) < 20 ? 0.1 : 1.0) + wob);
  }
  const gs::Waveform wf(0.0, 1.0, std::move(v));
  gs::EdgeExtractOptions opt;
  opt.hysteresis_v = 0.3;
  const auto ref = gs::extract_edges(wf, opt);
  ASSERT_GE(ref.size(), 3u);
  for (std::size_t chunk : kChunks)
    expect_edges_identical(chunked_edges(wf, opt, chunk), ref, "hover");
}

TEST(StreamingEdges, TieResidualsChunkInvariant) {
  Rng rng(404);
  gs::SynthConfig cfg = jittery_config();
  cfg.rj_sigma_ps = 2.0;
  const auto res = gs::synthesize_nrz(gs::prbs(7, 256, 9), cfg, &rng);
  const double ui = res.unit_interval_ps;

  const auto ref = gm::measure_jitter(res.wf, ui);
  for (std::size_t chunk : kChunks) {
    gm::JitterSink sink(ui);
    sink.begin(res.wf.t0_ps(), res.wf.dt_ps(), res.wf.size());
    const double* p = res.wf.samples().data();
    for (std::size_t o = 0; o < res.wf.size(); o += chunk)
      sink.consume(p + o, std::min(chunk, res.wf.size() - o));
    sink.finish();
    expect_jitter_identical(sink.report(), ref, "TIE residuals");
  }
}

TEST(StreamingEdges, TwoSampleLocatorMatchesHistoryBackscan) {
  // Seeded streams of 2-201 samples over every value class the locator
  // can meet: uniform levels, a random walk (slow transitions hovering
  // near the threshold), a lattice that lands exactly on th and
  // th +- hysteresis/2, and signed zeros, infinities, NaN, tiny normals
  // and denormals. The oracle takes each stream in one call; the
  // locator takes it in random chunks of 1-9 samples. Every edge must
  // match bit for bit.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double kSpecial[] = {0.0,     -0.0,    inf,    -inf,
                             nan,     1e-300,  -1e-300, denorm,
                             -denorm, 1e-310,  -1e-310};
  const double kThresholds[] = {0.0, 0.05, -0.05, 0.3};
  const double kHysteresis[] = {0.0, 0.1, 0.2, -0.3, 1e-9};
  const double kT0[] = {0.0, 1234.5678};
  const double kDt[] = {1.0, 0.3};
  Rng rng(3307);
  std::size_t n_edges = 0, mismatches = 0;
  std::vector<double> x;
  for (int stream = 0; stream < 60000; ++stream) {
    gs::EdgeExtractOptions opt;
    opt.threshold_v = kThresholds[rng.below(4)];
    opt.hysteresis_v = kHysteresis[rng.below(5)];
    const double t0 = kT0[rng.below(2)], dt = kDt[rng.below(2)];
    const std::size_t n = 2 + rng.below(200);
    if (rng.bit()) opt.t_min_ps = t0 + dt * static_cast<double>(rng.below(n));
    const double th = opt.threshold_v, half = opt.hysteresis_v / 2.0;
    const int style = static_cast<int>(rng.below(3));
    const double special_rate = (rng.below(3) == 0) ? 0.0 : 0.05;
    x.resize(n);
    double walk = rng.uniform(-1.0, 1.0);
    for (double& v : x) {
      if (rng.uniform() < special_rate) {
        v = kSpecial[rng.below(std::size(kSpecial))];
      } else if (style == 0) {
        v = rng.uniform(-1.0, 1.0);
      } else if (style == 1) {
        walk = std::clamp(walk + rng.uniform(-0.15, 0.15), -1.0, 1.0);
        v = walk;
      } else {
        v = th + half * static_cast<double>(static_cast<int>(rng.below(7)) - 3);
      }
    }
    BackscanExtractor oracle(t0, dt, opt);
    oracle.consume(x.data(), n);
    gs::StreamingEdgeExtractor ex(t0, dt, opt);
    for (std::size_t o = 0; o < n;) {
      const std::size_t c = std::min<std::size_t>(1 + rng.below(9), n - o);
      ex.consume(x.data() + o, c);
      o += c;
    }
    const auto& got = ex.edges();
    n_edges += oracle.edges.size();
    bool same = got.size() == oracle.edges.size();
    for (std::size_t i = 0; same && i < got.size(); ++i)
      same = std::memcmp(&got[i].t_ps, &oracle.edges[i].t_ps,
                         sizeof(double)) == 0 &&
             got[i].rising == oracle.edges[i].rising;
    if (!same && mismatches++ == 0)
      ADD_FAILURE() << "stream " << stream << ": " << got.size()
                    << " edges, oracle " << oracle.edges.size();
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(n_edges, 500000u);
}

TEST(StreamingEdges, NonFiniteSampleNextToTheCrossingDropsOnlyItsEdge) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    // A NaN right after the last low sample: the rising crossing
    // interpolates to a NaN time and is dropped; the falling and rising
    // crossings after it are still found.
    const gs::Waveform nan_wf(
        0.0, 1.0, std::vector<double>{-1.0, -1.0, nan, 1.0, 1.0, -1.0, 1.0});
    const auto a = chunked_edges(nan_wf, {}, chunk);
    ASSERT_EQ(a.size(), 2u) << "chunk " << chunk;
    EXPECT_FALSE(a[0].rising);
    EXPECT_EQ(a[0].t_ps, 4.5);
    EXPECT_TRUE(a[1].rising);
    EXPECT_EQ(a[1].t_ps, 5.5);
    // An infinite sample on the high side before a falling crossing: the
    // time is NaN and that edge alone is dropped.
    const gs::Waveform inf_wf(0.0, 1.0,
                              std::vector<double>{1.0, inf, -1.0, 1.0});
    const auto b = chunked_edges(inf_wf, {}, chunk);
    ASSERT_EQ(b.size(), 1u) << "chunk " << chunk;
    EXPECT_TRUE(b[0].rising);
    EXPECT_EQ(b[0].t_ps, 2.5);
  }
}

// ---------------------------------------------------------------------------
// JitterInjector block path

TEST(StreamingStages, JitterInjectorBlockMatchesStep) {
  // The pins are digests of the former per-sample step() path's output:
  // the block chain must reproduce it byte for byte at any chunking, for
  // Gaussian noise, sinusoidal (SJ) and mixed injection.
  Rng rng(808);
  const auto res = gs::synthesize_nrz(gs::prbs(7, 64, 4), jittery_config(), &rng);
  gc::JitterInjectorConfig noise, sj, mixed;
  sj.noise_pp_v = 0.0;
  sj.sj_pp_v = 0.6;
  sj.sj_freq_ghz = 0.2;
  mixed.sj_pp_v = 0.2;
  const std::pair<gc::JitterInjectorConfig, std::uint64_t> cases[] = {
      {noise, 0x6682ebf1e6f3f86cull},
      {sj, 0xc3d8a213dc6d04e8ull},
      {mixed, 0x6ae0af16fd9cad05ull}};
  for (const auto& [cfg, pin] : cases) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{17},
                              std::size_t{1024}, res.wf.size()}) {
      gc::JitterInjector fresh(cfg, Rng(99));
      fresh.reset();
      std::vector<double> got(res.wf.size());
      const double* p = res.wf.samples().data();
      for (std::size_t o = 0; o < res.wf.size(); o += chunk)
        fresh.process_block(p + o, got.data() + o,
                            std::min(chunk, res.wf.size() - o),
                            res.wf.dt_ps());
      EXPECT_EQ(gt::digest(got), pin) << "sj " << cfg.sj_pp_v << " chunk " << chunk;
    }
    // process() runs the same block path in kBlockSamples chunks.
    gc::JitterInjector whole(cfg, Rng(99));
    EXPECT_EQ(gt::digest(whole.process(res.wf).samples()), pin);
  }
}

// ---------------------------------------------------------------------------
// Full fused pipelines

TEST(StreamingPipeline, SynthChannelAllSinksIdentity) {
  const auto bits = gs::prbs(7, 400, 1);
  const gs::SynthConfig cfg = jittery_config();

  // Materializing reference: synth -> channel -> {capture, eye, jitter,
  // histogram, delay-vs-stimulus}.
  Rng rng_m(2008);
  const auto stim = gs::synthesize_nrz(bits, cfg, &rng_m);
  gc::VariableDelayChannel ch_m(gc::ChannelConfig::prototype(), rng_m.fork(1));
  ch_m.set_vctrl(0.4);
  const auto out_m = ch_m.process(stim.wf);
  const double ui = stim.unit_interval_ps;

  gm::EyeDiagram eye_m(ui, -0.55, 0.55, 72, 18);
  eye_m.accumulate(out_m, 0.0, 400.0);
  const auto jit_m = gm::measure_jitter(out_m, ui);
  gm::Histogram hist_m(-0.6, 0.6, 48);
  for (std::size_t i = 0; i < out_m.size(); ++i) {
    if (out_m.time_at(i) < out_m.t0_ps() + 400.0) continue;
    hist_m.add(out_m[i]);
  }
  const auto delay_m = gm::measure_delay(stim.wf, out_m);

  for (std::size_t chunk : kChunks) {
    Rng rng_s(2008);
    auto plan = gs::plan_nrz(bits, cfg, &rng_s);
    gc::VariableDelayChannel ch_s(gc::ChannelConfig::prototype(),
                                  rng_s.fork(1));
    ch_s.set_vctrl(0.4);
    gs::SynthSource src(std::move(plan));

    // A delay is two EdgeSinks set up as measure_delay extracts: one on
    // the raw stimulus stream (no stages), one on the channel's output.
    const gm::CrossingOptions dopt;
    gm::EdgeSink ref_edges(dopt);
    gc::Pipeline taps(chunk);
    taps.run(src, ref_edges);

    gm::WaveformCaptureSink cap;
    gm::EyeSink eye_s(gm::EyeDiagram(ui, -0.55, 0.55, 72, 18), 0.0, 400.0);
    gm::JitterSink jit_s(ui);
    gm::LevelHistogramSink hist_s(-0.6, 0.6, 48, 400.0);
    gm::EdgeSink out_edges(dopt);

    gc::Pipeline pipe(chunk);
    pipe.add_stage(ch_s);
    pipe.run(src, {&cap, &eye_s, &jit_s, &hist_s, &out_edges});

    expect_waveforms_identical(cap.waveform(), out_m, "pipeline output");
    expect_eyes_identical(eye_s.eye(), eye_m, "pipeline eye");
    expect_jitter_identical(jit_s.report(), jit_m, "pipeline jitter");

    ASSERT_EQ(hist_s.histogram().n_bins(), hist_m.n_bins());
    EXPECT_EQ(hist_s.histogram().total(), hist_m.total());
    EXPECT_EQ(hist_s.histogram().underflow(), hist_m.underflow());
    EXPECT_EQ(hist_s.histogram().overflow(), hist_m.overflow());
    for (std::size_t b = 0; b < hist_m.n_bins(); ++b)
      ASSERT_EQ(hist_s.histogram().count(b), hist_m.count(b)) << "bin " << b;

    const auto dm =
        gm::measure_delay_edges(ref_edges.edges(), out_edges.edges());
    EXPECT_EQ(dm.n_edges, delay_m.n_edges);
    EXPECT_EQ(std::memcmp(&dm.mean_ps, &delay_m.mean_ps, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&dm.stddev_ps, &delay_m.stddev_ps, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&dm.min_ps, &delay_m.min_ps, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&dm.max_ps, &delay_m.max_ps, sizeof(double)), 0);
  }
}

TEST(StreamingPipeline, SequentialRunsContinueNoiseStreams) {
  // Two consecutive process() calls on one channel continue its noise
  // streams; two consecutive Pipeline::run() calls must do exactly the
  // same (reset clears signal state, not RNG state).
  const auto bits = gs::prbs(7, 150, 8);
  const gs::SynthConfig cfg = jittery_config();

  Rng rng_m(31);
  const auto stim = gs::synthesize_nrz(bits, cfg, &rng_m);
  gc::VariableDelayChannel ch_m(gc::ChannelConfig::prototype(), rng_m.fork(1));
  ch_m.set_vctrl(0.0);
  const auto first_m = ch_m.process(stim.wf);
  ch_m.set_vctrl(ch_m.vctrl_max());
  const auto second_m = ch_m.process(stim.wf);

  Rng rng_s(31);
  auto plan = gs::plan_nrz(bits, cfg, &rng_s);
  gc::VariableDelayChannel ch_s(gc::ChannelConfig::prototype(), rng_s.fork(1));
  gs::SynthSource src(std::move(plan));
  gc::Pipeline pipe(64);
  pipe.add_stage(ch_s);

  gm::WaveformCaptureSink cap;
  ch_s.set_vctrl(0.0);
  pipe.run(src, cap);
  expect_waveforms_identical(cap.waveform(), first_m, "first run");
  ch_s.set_vctrl(ch_s.vctrl_max());
  pipe.run(src, cap);
  expect_waveforms_identical(cap.waveform(), second_m, "second run");
}

TEST(StreamingPipeline, MultiStageWithInjector) {
  const auto bits = gs::prbs(7, 150, 2);
  gs::SynthConfig cfg = jittery_config();
  cfg.rate_gbps = 3.2;

  Rng rng_m(900);
  const auto stim = gs::synthesize_nrz(bits, cfg, &rng_m);
  gc::JitterInjectorConfig jc;
  gc::JitterInjector jo_m(jc, rng_m.fork(2));
  ga::Attenuator pad_m(2.0);
  const auto mid_m = jo_m.process(stim.wf);
  pad_m.reset();
  const auto out_m = pad_m.process(mid_m);
  const auto jit_m = gm::measure_jitter(out_m, stim.unit_interval_ps);

  for (std::size_t chunk : {std::size_t{1}, std::size_t{64},
                            std::size_t{4096}}) {
    Rng rng_s(900);
    auto plan = gs::plan_nrz(bits, cfg, &rng_s);
    gc::JitterInjector jo_s(jc, rng_s.fork(2));
    ga::Attenuator pad_s(2.0);
    gs::SynthSource src(std::move(plan));

    gm::JitterSink jit_s(stim.unit_interval_ps);
    gc::Pipeline pipe(chunk);
    pipe.add_stage(jo_s).add_stage(pad_s);
    pipe.run(src, jit_s);
    expect_jitter_identical(jit_s.report(), jit_m, "injector pipeline");
  }
}

TEST(StreamingPipeline, StagelessRunReplaysSource) {
  Rng rng(61);
  const auto res = gs::synthesize_nrz(gs::prbs(7, 80, 6), jittery_config(), &rng);
  gs::WaveformSource src(res.wf);
  gm::WaveformCaptureSink cap;
  gc::Pipeline pipe(37);
  pipe.run(src, cap);
  expect_waveforms_identical(cap.waveform(), res.wf, "stageless replay");
}
