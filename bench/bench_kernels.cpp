// Kernel throughput of the block-processing path, for each analog
// element and the full composites, at the default simulation step
// dt = 0.25 ps, chunked exactly like the production process() path.
//
// Emits BENCH_kernels.json (schema 4, with the compute-backend stamp)
// with samples/s per kernel and — when the AVX2 backend is usable on
// this machine — per-kernel and whole-channel scalar-vs-AVX2 rows with
// the SIMD speedup verdict (target: >= 4x on the channel), plus
// lane-batched 4-stream rows and the batch_channel_speedup verdict
// (batched AVX2 channel vs solo scalar channel, target: >= 3x).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analog/buffer.h"
#include "analog/coupling.h"
#include "analog/primitives.h"
#include "backend/backend.h"
#include "bench/common.h"
#include "bench/gbench_json.h"
#include "bench/memtrack.h"
#include "core/batch.h"
#include "core/channel.h"
#include "core/fine_delay.h"
#include "measure/sinks.h"
#include "signal/waveform.h"
#include "util/rng.h"

namespace ga = gdelay::analog;
namespace gb = gdelay::backend;
namespace gc = gdelay::core;
namespace gm = gdelay::meas;
namespace gs = gdelay::sig;
using gdelay::util::Rng;

namespace {

constexpr std::size_t kN = 16384;  // samples per iteration
constexpr double kDt = 0.25;       // ps — the tier-1 default step

const std::vector<double>& stim() {
  static const std::vector<double> v = [] {
    std::vector<double> s(kN);
    for (std::size_t i = 0; i < kN; ++i) {
      const double t = static_cast<double>(i);
      s[i] = 0.35 * std::sin(0.07 * t) + 0.15 * std::sin(0.011 * t + 0.5) +
             ((i / 37) % 2 ? 0.2 : -0.2);
    }
    return s;
  }();
  return v;
}

// Chunked exactly like run_blocked() so the measurement reflects the
// production process() path, not one giant flat call.
template <typename E>
void run_block(benchmark::State& state, E& e) {
  const auto& in = stim();
  std::vector<double> out(in.size());
  for (auto _ : state) {
    for (std::size_t o = 0; o < in.size(); o += ga::kBlockSamples)
      e.process_block(in.data() + o, out.data() + o,
                      std::min(ga::kBlockSamples, in.size() - o), kDt);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * in.size()));
}

void SinglePoleFilter_block(benchmark::State& s) {
  ga::SinglePoleFilter f(9.0);
  run_block(s, f);
}
BENCHMARK(SinglePoleFilter_block);

void TanhLimiter_block(benchmark::State& s) {
  ga::TanhLimiter l(2.5, 0.5);
  run_block(s, l);
}
BENCHMARK(TanhLimiter_block);

void SlewRateLimiter_block(benchmark::State& s) {
  ga::SlewRateLimiter l(0.005, 20.0, 300.0);
  run_block(s, l);
}
BENCHMARK(SlewRateLimiter_block);

void FractionalDelay_block(benchmark::State& s) {
  ga::FractionalDelay d(33.0);
  run_block(s, d);
}
BENCHMARK(FractionalDelay_block);

void NoiseSource_block(benchmark::State& s) {
  ga::NoiseSource n(0.012, 7.5, Rng(1));
  std::vector<double> out(kN);
  for (auto _ : s) {
    for (std::size_t o = 0; o < kN; o += ga::kBlockSamples)
      n.process_block(out.data() + o, std::min(ga::kBlockSamples, kN - o),
                      kDt);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  s.SetItemsProcessed(static_cast<int64_t>(s.iterations() * kN));
}
BENCHMARK(NoiseSource_block);

void VariableGainBuffer_block(benchmark::State& s) {
  ga::VariableGainBuffer b(ga::VgaBufferConfig{}, Rng(2));
  b.set_vctrl(0.9);
  run_block(s, b);
}
BENCHMARK(VariableGainBuffer_block);

void LimitingBuffer_block(benchmark::State& s) {
  ga::LimitingBuffer b(ga::LimitingBufferConfig{}, Rng(3));
  run_block(s, b);
}
BENCHMARK(LimitingBuffer_block);

// ---------------------------------------------------------------------------
// Raw kernel rows: the hot loops in isolation, one row per (table kernel,
// backend). Registered at runtime because the AVX2 rows only exist when
// the backend is usable on this machine. The names are
// "Kernel_<op>/<backend>" so the json diff tooling pairs them up. The
// serial recursions have one definition, shared by every table, so their
// rows carry no backend suffix and are registered once.

template <typename LoopFn>
void kernel_row(benchmark::State& s, const char* backend, LoopFn loop) {
  gb::select(backend);
  const gb::Kernels& k = gb::active();
  const auto& in = stim();
  std::vector<double> out(in.size()), out2(in.size());
  for (auto _ : s) {
    loop(k, in.data(), out.data(), out2.data(), in.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  s.SetItemsProcessed(static_cast<int64_t>(s.iterations() * in.size()));
  gb::select("scalar");
}

void register_kernel_rows(const char* backend) {
  const std::string suffix = std::string("/") + backend;
  benchmark::RegisterBenchmark(
      ("Kernel_tanh" + suffix).c_str(), [backend](benchmark::State& s) {
        kernel_row(s, backend,
                   [](const gb::Kernels& k, const double* in, double* out,
                      double*, std::size_t n) {
                     const double g = 2.0, r = 0.2, p = 1.0;
                     k.tanh_stage(in, nullptr, out, n, 1, &g, &r, &p);
                   });
      });
  benchmark::RegisterBenchmark(
      ("Kernel_boxmuller" + suffix).c_str(), [backend](benchmark::State& s) {
        // Uniform pair arrays prepared once; the row isolates the
        // transform (det_log + sqrt + det_sincos2pi), not the RNG.
        const auto& raw = stim();
        std::vector<double> u1(raw.size()), u2(raw.size());
        for (std::size_t i = 0; i < raw.size(); ++i) {
          u2[i] = std::abs(raw[i]) / 0.71;
          if (u2[i] >= 1.0) u2[i] = 0.999;
          u1[i] = 1.0 - u2[i];
        }
        kernel_row(s, backend,
                   [&](const gb::Kernels& k, const double*, double* oc,
                       double* os, std::size_t n) {
                     k.box_muller(u1.data(), u2.data(), oc, os, n);
                   });
      });
}

// Rows of the serial recursions, `W` streams wide: stream l is the
// stimulus scaled by 1 + 0.1 l, interleaved time-major, so items = W x kN
// per iteration.
template <std::size_t W, typename LoopFn>
void recursion_row(benchmark::State& s, LoopFn loop) {
  std::vector<double> in(kN * W), out(kN * W);
  for (std::size_t i = 0; i < kN; ++i)
    for (std::size_t l = 0; l < W; ++l)
      in[i * W + l] = stim()[i] * (1.0 + 0.1 * static_cast<double>(l));
  for (auto _ : s) {
    loop(in.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  s.SetItemsProcessed(static_cast<int64_t>(s.iterations() * kN * W));
}

template <std::size_t W>
void one_pole_row(benchmark::State& s) {
  double alpha[W];
  gb::OnePoleState st[W];
  gb::OnePoleState* stp[W];
  for (std::size_t l = 0; l < W; ++l) {
    alpha[l] = 0.17;
    stp[l] = &st[l];
  }
  recursion_row<W>(s, [&](const double* in, double* out) {
    gb::one_pole(in, out, kN, W, alpha, stp);
  });
}

template <std::size_t W>
void slew_row(benchmark::State& s) {
  gb::SlewCoeffs c[W];
  gb::SlewState st[W];
  gb::SlewState* stp[W];
  for (std::size_t l = 0; l < W; ++l) {
    c[l].max_step = 0.00125;
    c[l].lin = 0.0124;
    c[l].leak = 0.00083;
    c[l].has_lin = c[l].has_leak = true;
    stp[l] = &st[l];
  }
  recursion_row<W>(s, [&](const double* in, double* out) {
    gb::slew(in, out, kN, W, c, stp);
  });
}

void register_recursion_rows() {
  benchmark::RegisterBenchmark("Kernel_onepole", one_pole_row<1>);
  benchmark::RegisterBenchmark("Kernel_slew", slew_row<1>);
  benchmark::RegisterBenchmark("Kernel_onepole_batch4", one_pole_row<4>);
  benchmark::RegisterBenchmark("Kernel_slew_batch4", slew_row<4>);
}

// Whole-channel block path per backend — the tentpole target number:
// "VariableDelayChannel_block/avx2" vs "/scalar".
void register_channel_rows(const char* backend) {
  benchmark::RegisterBenchmark(
      (std::string("VariableDelayChannel_block/") + backend).c_str(),
      [backend](benchmark::State& s) {
        gb::select(backend);
        gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(5));
        ch.set_vctrl(0.75);
        run_block(s, ch);
        gb::select("scalar");
      });
  benchmark::RegisterBenchmark(
      (std::string("FineDelayLine_block/") + backend).c_str(),
      [backend](benchmark::State& s) {
        gb::select(backend);
        gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(4));
        line.set_vctrl(0.75);
        run_block(s, line);
        gb::select("scalar");
      });
}

// ---------------------------------------------------------------------------
// Lane-batched rows: four independent channels or fine lines advanced
// together, so items = 4 x kN per iteration. The tentpole metric —
// batch_channel_speedup in the json — is "ChannelBatch4_block/avx2"
// against the solo "VariableDelayChannel_block/scalar": what batching
// plus SIMD buys over one stream on the scalar backend.

void register_batch_rows(const char* backend) {
  const std::string suffix = std::string("/") + backend;
  benchmark::RegisterBenchmark(
      ("ChannelBatch4_block" + suffix).c_str(),
      [backend](benchmark::State& s) {
        constexpr std::size_t kW = 4;
        gb::select(backend);
        const gs::Waveform wf(0.0, kDt, stim());
        std::vector<gc::VariableDelayChannel> chans;
        chans.reserve(kW);
        for (std::size_t i = 0; i < kW; ++i) {
          chans.emplace_back(gc::ChannelConfig::prototype(),
                             Rng(5 + static_cast<std::uint64_t>(i)));
          chans.back().set_vctrl(0.75);
        }
        std::vector<gc::VariableDelayChannel*> lanes;
        for (auto& c : chans) lanes.push_back(&c);
        std::vector<gm::WaveformCaptureSink> caps(kW);
        const std::vector<gm::ISampleSink*> sinks{&caps[0], &caps[1],
                                                  &caps[2], &caps[3]};
        for (auto _ : s) {
          gc::run_lanes(lanes, wf, sinks);
          benchmark::DoNotOptimize(caps.data());
          benchmark::ClobberMemory();
        }
        s.SetItemsProcessed(
            static_cast<int64_t>(s.iterations() * wf.size() * kW));
        gb::select("scalar");
      });
  benchmark::RegisterBenchmark(
      ("FineDelayBatch4_block" + suffix).c_str(),
      [backend](benchmark::State& s) {
        constexpr std::size_t kW = 4;
        gb::select(backend);
        const gs::Waveform wf(0.0, kDt, stim());
        std::vector<gc::FineDelayLine> lines;
        lines.reserve(kW);
        for (std::size_t i = 0; i < kW; ++i) {
          lines.emplace_back(gc::FineDelayConfig{},
                             Rng(4 + static_cast<std::uint64_t>(i)));
          lines.back().set_vctrl(0.75);
        }
        std::vector<gc::FineDelayLine*> lanes;
        for (auto& l : lines) lanes.push_back(&l);
        std::vector<gm::WaveformCaptureSink> caps(kW);
        const std::vector<gm::ISampleSink*> sinks{&caps[0], &caps[1],
                                                  &caps[2], &caps[3]};
        for (auto _ : s) {
          gc::run_lanes(lanes, wf, sinks);
          benchmark::DoNotOptimize(caps.data());
          benchmark::ClobberMemory();
        }
        s.SetItemsProcessed(
            static_cast<int64_t>(s.iterations() * wf.size() * kW));
        gb::select("scalar");
      });
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outdir = gdelay::bench::parse_outdir(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  register_recursion_rows();
  register_kernel_rows("scalar");
  register_channel_rows("scalar");
  register_batch_rows("scalar");
  if (gb::avx2_kernels() != nullptr) {
    register_kernel_rows("avx2");
    register_channel_rows("avx2");
    register_batch_rows("avx2");
  } else {
    std::printf("note: AVX2 backend not usable on this machine; "
                "scalar-only rows\n");
  }

  gdelay::bench::CaptureReporter rep;
  benchmark::RunSpecifiedBenchmarks(&rep);

  // SIMD verdict: the AVX2 table vs the scalar table, both on the block
  // path (the PR that introduced blocks is the baseline the 4x target is
  // written against).
  const auto ratio_of = [&](const std::string& name) {
    const double sc = rep.items_per_sec(name + "/scalar");
    const double vx = rep.items_per_sec(name + "/avx2");
    return sc > 0.0 && vx > 0.0 ? vx / sc : 0.0;
  };
  const double simd_chan = ratio_of("VariableDelayChannel_block");
  if (gb::avx2_kernels() != nullptr) {
    std::printf("\navx2-vs-scalar speedup (block path):\n");
    for (const char* k : {"Kernel_tanh", "Kernel_boxmuller"})
      std::printf("  %-20s: %.2fx\n", k, ratio_of(k));
    std::printf("  FineDelayLine_block : %.2fx\n",
                ratio_of("FineDelayLine_block"));
    std::printf("  VariableDelayChannel_block: %.2fx (target >= 4x)  %s\n",
                simd_chan, simd_chan >= 4.0 ? "PASS" : "MISS");
  }

  // Lane-batched verdict: 4 streams through the batched executor on the
  // AVX2 table vs one stream on the scalar table — what multi-stream
  // work (MC trials, sweep points, board channels) actually gains.
  const double solo_scalar =
      rep.items_per_sec("VariableDelayChannel_block/scalar");
  const double batch_scalar = rep.items_per_sec("ChannelBatch4_block/scalar");
  const double batch_avx2 = rep.items_per_sec("ChannelBatch4_block/avx2");
  const double batch_chan =
      solo_scalar > 0.0 && batch_avx2 > 0.0 ? batch_avx2 / solo_scalar : 0.0;
  std::printf("\nlane-batched (4-wide) vs solo scalar channel:\n");
  std::printf("  ChannelBatch4/scalar      : %.2fx (batching alone)\n",
              solo_scalar > 0.0 ? batch_scalar / solo_scalar : 0.0);
  if (gb::avx2_kernels() != nullptr) {
    std::printf("  FineDelayBatch4_block     : %.2fx (avx2 vs scalar batch)\n",
                ratio_of("FineDelayBatch4_block"));
    std::printf("  batch_channel_speedup     : %.2fx (target >= 3x)  %s\n",
                batch_chan, batch_chan >= 3.0 ? "PASS" : "MISS");
  }

  const auto heap = gdelay::bench::heap_snapshot();
  gdelay::bench::MemReport mem;
  mem.peak_rss_bytes = gdelay::bench::peak_rss_bytes();
  mem.heap_peak_bytes = heap.peak_bytes;
  mem.heap_total_bytes = heap.total_bytes;
  mem.alloc_count = heap.alloc_count;
  gdelay::bench::write_gbench_json(
      (outdir + "/BENCH_kernels.json").c_str(), "kernels", rep.rows,
      {{"dt_ps", kDt},
       {"simd_channel_speedup", simd_chan},
       {"simd_speedup_target", 4.0},
       {"batch_channel_speedup", batch_chan},
       {"batch_speedup_target", 3.0}},
      &mem);
  benchmark::Shutdown();
  return 0;
}
