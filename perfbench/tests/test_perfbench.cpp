// The benchmark's own tests: its timing decorators are transparent, its
// self-time arithmetic is right, and it reports a tail percentile only
// with enough samples beyond it.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/channel.h"
#include "core/jitter_injector.h"
#include "core/pipeline.h"
#include "measure/sinks.h"
#include "signal/pattern.h"
#include "signal/stream.h"
#include "signal/synth.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

using namespace perfbench;
using namespace gdelay;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

sig::SynthPlan small_plan() {
  util::Rng rng(3);
  sig::SynthConfig sc;
  sc.rate_gbps = 6.4;
  sc.rj_sigma_ps = 2.0;
  return sig::plan_nrz(sig::prbs(7, 96), sc, &rng);
}

std::uint64_t digest_of(const meas::WaveformCaptureSink& cap,
                        const meas::JitterSink& jit) {
  Digest d;
  d.f64s(cap.waveform().samples());
  d.f64(jit.report().tj_pp_ps);
  d.f64s(jit.report().residuals_ps);
  return d.value();
}

// Channel as one stage, untimed, against its coarse block and fine line
// as two timed stages with a timed source and timed sinks.
void decorators_are_transparent() {
  const sig::SynthPlan plan = small_plan();
  const core::VariableDelayChannel proto(core::ChannelConfig::prototype(),
                                         util::Rng(5));
  std::uint64_t plain = 0, timed = 0;
  {
    core::VariableDelayChannel ch = proto;
    ch.select_tap(2);
    ch.set_vctrl(0.6);
    sig::SynthSource src{sig::SynthPlan(plan)};
    meas::WaveformCaptureSink cap;
    meas::JitterSink jit(plan.unit_interval_ps);
    core::Pipeline pipe;
    pipe.add_stage(ch);
    pipe.run(src, {&cap, &jit});
    plain = digest_of(cap, jit);
  }
  Tracer::instance().reset();
  Tracer::instance().enable(true);
  {
    core::VariableDelayChannel ch = proto;
    ch.select_tap(2);
    ch.set_vctrl(0.6);
    sig::SynthSource src{sig::SynthPlan(plan)};
    meas::WaveformCaptureSink cap;
    meas::JitterSink jit(plan.unit_interval_ps);
    TimedStage<core::CoarseDelayBlock> coarse(ch.coarse(), Layer::kCoarseDelay);
    TimedStage<core::FineDelayLine> fine(ch.fine(), Layer::kFineDelay);
    TimedSource tsrc(src);
    TimedSink tcap(cap, Layer::kMeasureEye);
    TimedSink tjit(jit, Layer::kMeasureJitter);
    core::Pipeline pipe;
    pipe.add_stage(coarse).add_stage(fine);
    pipe.run(tsrc, {&tcap, &tjit});
    timed = digest_of(cap, jit);
  }
  Tracer::instance().enable(false);
  check(plain == timed, "timed pipeline run gives the plain run's digest");
  const Totals t = Tracer::instance().totals();
  const LayerTotals& coarse = t[static_cast<std::size_t>(Layer::kCoarseDelay)];
  const LayerTotals& stream = t[static_cast<std::size_t>(Layer::kSignalStream)];
  check(coarse.samples == plan.n, "coarse stage spans count every sample once");
  check(stream.samples == plan.n, "source spans count every sample once");

  // A timed injector stage, run twice like an inject_sweep noise op.
  std::uint64_t inj_plain = 0, inj_timed = 0;
  for (int timed_run = 0; timed_run < 2; ++timed_run) {
    Tracer::instance().enable(timed_run == 1);
    core::JitterInjector inj(core::JitterInjectorConfig{}, util::Rng(9));
    sig::SynthSource src{sig::SynthPlan(plan)};
    meas::WaveformCaptureSink cap;
    meas::JitterSink jit(plan.unit_interval_ps);
    core::Pipeline pipe;
    TimedStage<core::JitterInjector> stage(inj, Layer::kJitterInjector);
    if (timed_run) pipe.add_stage(stage); else pipe.add_stage(inj);
    pipe.run(src, {&cap, &jit});
    pipe.run(src, {&cap, &jit});  // continuing noise streams
    (timed_run ? inj_timed : inj_plain) = digest_of(cap, jit);
  }
  Tracer::instance().enable(false);
  check(inj_plain == inj_timed, "timed injector stage gives the plain digest");
}

// root [0, 100] > a [10, 40], b [50, 70] > c [55, 60].
void self_time_arithmetic() {
  Tracer& tr = Tracer::instance();
  tr.reset();
  tr.enable(true);
  tr.set_op(7);
  tr.open(Layer::kOp, 0);
  tr.open(Layer::kPipeline, 10);
  tr.close(40);
  tr.open(Layer::kCalibration, 50);
  tr.open(Layer::kFineDelay, 55);
  tr.close(60, 123);
  tr.close(70);
  tr.close(100);
  tr.add_detached(Layer::kCampaignUnit, 30, 1);
  tr.enable(false);

  const Totals t = tr.totals();
  const auto at = [&](Layer l) { return t[static_cast<std::size_t>(l)]; };
  check(at(Layer::kOp).busy_ns == 100 && at(Layer::kOp).self_ns == 50,
        "root self time is its span minus its direct children");
  check(at(Layer::kCalibration).self_ns == 15,
        "a child's self time excludes its own child");
  check(at(Layer::kFineDelay).self_ns == 5 && at(Layer::kFineDelay).samples == 123,
        "a leaf's self time is its span");
  check(at(Layer::kCampaignUnit).self_ns == 30 && at(Layer::kOp).self_ns == 50,
        "detached time counts as its own and is no span's child");

  const std::vector<Span> kept = tr.thread_records();
  check(kept.size() == 4 && tr.recorded() == 4, "every span is kept below the cap");
  if (kept.size() == 4) {
    check(kept[0].parent == -1 && kept[1].parent == 0 && kept[2].parent == 0 &&
              kept[3].parent == 2,
          "kept records link each span to its parent");
    check(kept[3].op == 7 && kept[3].start_ns == 55 && kept[3].end_ns == 60,
          "kept records carry op id, start and end");
  }

  tr.reset();
  tr.set_record_limit(2);
  tr.enable(true);
  tr.open(Layer::kOp, 0);
  tr.open(Layer::kPipeline, 1);
  tr.open(Layer::kFineDelay, 2);
  tr.close(3);
  tr.close(4);
  tr.close(5);
  tr.enable(false);
  check(tr.recorded() == 2 && tr.dropped() == 1,
        "spans past the cap are counted, not kept");
  check(tr.totals()[static_cast<std::size_t>(Layer::kOp)].self_ns == 2,
        "totals stay exact past the cap");
  tr.set_record_limit(200000);
  tr.reset();
}

void percentile_rule() {
  check(percentile_reportable(100, 0.9), "p90 of 100 samples has 10 beyond it");
  check(!percentile_reportable(99, 0.9), "p90 of 99 samples has only 9 beyond it");
  check(percentile_reportable(1000, 0.99) && !percentile_reportable(999, 0.99),
        "p99 needs 1000 samples");
  check(percentile_reportable(20, 0.5) && !percentile_reportable(19, 0.5),
        "even the median needs 10 beyond it");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  check(median(v) == 51.0 && quantile(v, 0.9) == 91.0,
        "quantiles interpolate between closest ranks");
  check(quantile({1.0, 2.0}, 0.5) == 1.5,
        "even-sized median is the mean of the middle two");
}

}  // namespace

int main() {
  decorators_are_transparent();
  self_time_arithmetic();
  percentile_rule();
  std::printf("%d failure(s)\n", failures);
  return failures ? EXIT_FAILURE : EXIT_SUCCESS;
}
