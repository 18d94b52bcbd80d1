// inject_sweep: the paper's jitter-injection mode (Section 5).
//
// Noise ops follow bench_fig17: a fresh JitterInjector streams a 3.2 Gbps
// plan through a Pipeline twice, at 0 Vpp and at the op's amplitude, each
// into a JitterSink. SJ ops follow bench_sj_template: process() at one
// frequency and amplitude, scored by a CDR receiver. Nearly all of the
// time is the injector's per-sample Vctrl path, which is why this is the
// workload that should move when that path changes and no other.
#include <cmath>

#include "ate/cdr.h"
#include "ate/dut.h"
#include "core/jitter_injector.h"
#include "core/pipeline.h"
#include "measure/sinks.h"
#include "signal/pattern.h"
#include "signal/stream.h"
#include "signal/synth.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace gdelay;

constexpr double kNoiseAmplitudesV[] = {0.3, 0.6, 0.9};
constexpr std::size_t kTrialsPerAmplitude = 2;
constexpr std::size_t kNoiseOps = 3 * kTrialsPerAmplitude;
constexpr std::size_t kNoiseBits = 384;
constexpr double kFigureAmplitudeV = 0.9;  // Fig. 16's generator setting
constexpr double kFig16AddedTjPs = 41.0;

constexpr double kSjFreqsMhz[] = {20.0, 200.0};
constexpr std::size_t kSjOps = 2;
constexpr std::size_t kSjBits = 512;
// Half the smallest amplitude bench_sj_template finds tolerated (0.98 Vpp
// above the loop bandwidth), so every SJ op must recover error-free.
constexpr double kSjAmplitudeV = 0.5;
constexpr double kCdrGain = 0.08;
constexpr double kCdrStartPs = 14000.0;

meas::JitterMeasureOptions settled() {
  meas::JitterMeasureOptions jo;
  jo.settle_ps = 12000.0;
  return jo;
}

void digest_report(Digest& d, const meas::JitterReport& r) {
  d.u64(r.n_edges);
  d.f64(r.grid_phase_ps);
  d.f64(r.tj_pp_ps);
  d.f64(r.rj_rms_ps);
  d.f64(r.dj_pp_ps);
  d.f64s(r.residuals_ps);
}

class InjectSweep final : public Workload {
 public:
  InjectSweep(std::uint64_t seed, const WorkloadOptions&) : seed_(seed) {
    util::Rng rng(seed);
    sig::SynthConfig sc;
    sc.rate_gbps = 3.2;
    sc.rj_sigma_ps = sig::rj_sigma_for_tj_pp(8.0, kNoiseBits / 2);
    noise_plan_ = sig::plan_nrz(
        sig::prbs(7, kNoiseBits, static_cast<std::uint32_t>(rng.next_u64())),
        sc, &rng);

    sig::SynthConfig sj;
    sj.rate_gbps = 6.4;
    sj_bits_ = sig::prbs(7, kSjBits, static_cast<std::uint32_t>(rng.next_u64()));
    sj_stim_ = sig::synthesize_nrz(sj_bits_, sj, nullptr);
  }

  std::size_t ops_per_pass() const override { return kNoiseOps + kSjOps; }
  bool concurrent_ops() const override { return true; }
  double paper_value() const override { return kFig16AddedTjPs; }

  OpOutcome run_op(std::size_t i, OpClock& clock) override {
    return i < kNoiseOps ? noise_op(i, clock) : sj_op(i - kNoiseOps, clock);
  }

 private:
  OpOutcome noise_op(std::size_t i, OpClock& clock) {
    const double amplitude = kNoiseAmplitudesV[i / kTrialsPerAmplitude];
    core::JitterInjector inj(core::JitterInjectorConfig{}, stream_rng(seed_, 100 + i));
    sig::SynthSource src{sig::SynthPlan(noise_plan_)};
    const double ui = noise_plan_.unit_interval_ps;
    meas::JitterSink quiet(ui, settled()), injected(ui, settled());

    const auto two_passes = [&](core::Pipeline& pipe, sig::SampleSource& source,
                                meas::ISampleSink& sink0,
                                meas::ISampleSink& sink1) {
      inj.set_noise_pp(0.0);
      {
        ScopedSpan span(Layer::kPipeline);
        pipe.run(source, sink0);
      }
      inj.set_noise_pp(amplitude);
      {
        ScopedSpan span(Layer::kPipeline);
        pipe.run(source, sink1);
      }
    };
    core::Pipeline pipe;
    if (clock.traced()) {
      TimedStage<core::JitterInjector> stage(inj, Layer::kJitterInjector);
      TimedSource tsrc(src);
      TimedSink t0(quiet, Layer::kMeasureJitter), t1(injected, Layer::kMeasureJitter);
      pipe.add_stage(stage);
      two_passes(pipe, tsrc, t0, t1);
    } else {
      pipe.add_stage(inj);
      two_passes(pipe, src, quiet, injected);
    }
    clock.stop();

    const meas::JitterReport& r0 = quiet.report();
    const meas::JitterReport& r1 = injected.report();
    OpOutcome out;
    Digest d;
    digest_report(d, r0);
    digest_report(d, r1);
    out.digest = d.value();
    out.samples = 2 * noise_plan_.n;
    out.stream_samples = 2 * noise_plan_.n;
    out.edges = r0.n_edges + r1.n_edges;
    const double added = r1.tj_pp_ps - r0.tj_pp_ps;
    if (amplitude == kFigureAmplitudeV) out.figure = added;
    if (r0.n_edges < kNoiseBits / 4 || r1.n_edges < kNoiseBits / 4)
      out.why = "too few edges measured";
    else if (!(r1.rj_rms_ps > r0.rj_rms_ps))
      out.why = "injection did not raise the RMS jitter";
    else if (!(std::isfinite(added) && added < 150.0))
      out.why = "added TJ not below 150 ps";
    out.ok = out.why.empty();
    return out;
  }

  // The spans here cost nothing unless the clock (and tracer) is traced.
  OpOutcome sj_op(std::size_t j, OpClock& clock) {
    core::JitterInjectorConfig jc;
    jc.sj_pp_v = kSjAmplitudeV;
    jc.sj_freq_ghz = kSjFreqsMhz[j] / 1000.0;
    jc.noise_pp_v = 0.0;
    core::JitterInjector inj(jc, stream_rng(seed_, 200 + j));

    sig::Waveform stressed;
    {
      ScopedSpan span(Layer::kJitterInjector, sj_stim_.wf.size());
      stressed = inj.process(sj_stim_.wf);
    }
    ate::CdrResult res;
    std::size_t errors = 0;
    {
      ScopedSpan span(Layer::kAteCdr);
      ate::CdrConfig cc;
      cc.ui_ps = sj_stim_.unit_interval_ps;
      cc.gain = kCdrGain;
      res = ate::CdrReceiver(cc).recover(stressed, kCdrStartPs);
      errors = ate::DutReceiver::best_alignment_errors(res.bits, sj_bits_, 128);
    }
    clock.stop();

    OpOutcome out;
    Digest d;
    d.ints(res.bits);
    d.f64s(res.strobes_ps);
    d.f64(res.tracking_error_rms_ps);
    d.u64(errors);
    out.digest = d.value();
    out.samples = sj_stim_.wf.size();
    if (res.bits.size() < kSjBits / 2)
      out.why = "CDR recovered too few bits";
    else if (errors != 0)
      out.why = "CDR bit errors at an amplitude inside the tolerance";
    out.ok = out.why.empty();
    return out;
  }

  std::uint64_t seed_;
  sig::SynthPlan noise_plan_;
  sig::BitPattern sj_bits_;
  sig::SynthResult sj_stim_;
};

}  // namespace

std::unique_ptr<Workload> make_inject_sweep(std::uint64_t seed,
                                            const WorkloadOptions& opt) {
  return std::make_unique<InjectSweep>(seed, opt);
}

}  // namespace perfbench
