// Monte-Carlo study (ours): does the design meet its requirements across
// manufacturing scatter? The paper reports one 2-channel build and one
// 4-channel build; a production release needs the distribution. We draw
// 12 channel instances with process variation, run the full calibration
// flow on each, and tabulate range / resolution / programming accuracy.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "campaign/campaign.h"
#include "core/batch.h"
#include "core/board.h"
#include "core/requirements.h"
#include "core/variation.h"
#include "fast/edge_model.h"
#include "measure/delay_meter.h"
#include "measure/stats.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"
#include "util/serde.h"

using namespace gdelay;
using R = core::Requirements;

int main(int argc, char** argv) {
  const std::string outdir = bench::parse_outdir(&argc, argv);
  bench::banner("Monte-Carlo: requirements across process variation",
                "(ours; extends the paper's single-build report)");

  util::Rng rng(2008);
  sig::SynthConfig sc;
  sc.rate_gbps = 3.2;
  const auto stim = sig::synthesize_nrz(sig::prbs(7, 96), sc);

  constexpr int kInstances = 12;
  core::DelayBoardConfig bcfg;
  bcfg.n_channels = kInstances;
  core::DelayBoard board(bcfg, rng.fork(1));
  core::DelayCalibrator::Options o;
  o.n_vctrl_points = 9;
  board.calibrate(stim.wf, o);

  // Program every instance for 70 ps, then measure them all against the
  // stimulus edges, extracted once: the instances ride the lane-batched
  // executor four to a group (core::lane_edges), groups fan out across
  // the pool, and the batch contract keeps every instance's edges
  // bit-identical to its solo run, so the table below matches the old
  // per-trial flow exactly for any GDELAY_THREADS.
  board.program_all(70.0);
  std::vector<core::VariableDelayChannel*> chans;
  for (int i = 0; i < kInstances; ++i) chans.push_back(&board.channel(i));
  const meas::CrossingOptions dopt;
  const auto ref_edges = meas::delay_edges(stim.wf, dopt);
  const auto out_edges = core::lane_edges(chans, stim.wf, dopt);
  std::vector<double> fine, total, res, err;
  bench::section("Per-instance calibration results");
  std::printf("  %4s %10s %11s %12s %12s\n", "inst", "fine(ps)",
              "total(ps)", "res(ps/LSB)", "|err@70ps|");
  for (int i = 0; i < kInstances; ++i) {
    const auto& cal = board.calibrations()[static_cast<std::size_t>(i)];
    const double realized =
        meas::measure_delay_edges(ref_edges,
                                  out_edges[static_cast<std::size_t>(i)])
            .mean_ps -
        cal.base_latency_ps;
    fine.push_back(cal.fine_range_ps());
    total.push_back(cal.total_range_ps());
    res.push_back(cal.resolution_ps());
    err.push_back(std::abs(realized - 70.0));
    std::printf("  %4d %10.2f %11.2f %12.4f %12.3f\n", i,
                fine.back(), total.back(), res.back(), err.back());
  }

  const auto fs = meas::summarize(fine);
  const auto ts = meas::summarize(total);
  const auto rs = meas::summarize(res);
  const auto es = meas::summarize(err);
  bench::section("Distribution & verdicts");
  std::printf("  fine range : %6.2f +/- %4.2f ps (min %6.2f)  need > %.0f: %s\n",
              fs.mean, fs.stddev, fs.min, R::kFineRangeNeededPs,
              fs.min > R::kFineRangeNeededPs ? "PASS" : "FAIL");
  std::printf("  total range: %6.2f +/- %4.2f ps (min %6.2f)  need > %.0f: %s\n",
              ts.mean, ts.stddev, ts.min, R::kTotalRangePs,
              ts.min > R::kTotalRangePs ? "PASS" : "FAIL");
  std::printf("  resolution : %6.4f ps/LSB worst %6.4f     need < %.0f: %s\n",
              rs.mean, rs.max, R::kResolutionPs,
              rs.max < R::kResolutionPs ? "PASS" : "FAIL");
  std::printf("  prog error : %6.3f ps mean, worst %5.3f   (calibration\n"
              "               absorbs the instance-to-instance scatter)\n",
              es.mean, es.max);

  bench::section("Slow corner (-3 sigma everything)");
  {
    core::ChannelConfig corner = core::ProcessVariation::slow_corner(
        core::ChannelConfig::prototype(), 3.0);
    core::VariableDelayChannel ch(corner, rng.fork(99));
    core::DelayCalibrator cal(o);
    const auto c = cal.calibrate(ch, stim.wf);
    std::printf("  fine %.2f ps, total %.2f ps -> %s at the corner\n",
                c.fine_range_ps(), c.total_range_ps(),
                c.total_range_ps() > R::kTotalRangePs ? "still PASS"
                                                      : "FAIL");
  }
  // -------------------------------------------------------------------
  // Extreme statistics: 12 analog instances bound the tails poorly. The
  // campaign orchestrator runs 1e6 edge-model trials — fit the fast model
  // once on the prototype, then perturb its parameters per trial with
  // ProcessVariation-style sigmas — sharded over pool threads, with the
  // merged per-trial record set pinned bit-identical across shard counts.
  // -------------------------------------------------------------------
  bench::section("1e6-trial edge-model campaign (thread-sharded)");
  core::VariableDelayChannel proto_ch(core::ChannelConfig::prototype(),
                                      rng.fork(7));
  const fast::EdgeModelParams proto =
      fast::fit_edge_model(proto_ch, stim.wf, stim.unit_interval_ps, o);
  const core::ProcessVariation pv;
  const double fine_span = proto.fine_curve.y_span();

  constexpr std::uint64_t kTrials = 1000000;
  const auto factory = [] {
    campaign::AccumulatorSet s;
    s.push_back(std::make_unique<campaign::RecordAccumulator>(4));
    return s;
  };
  // One trial = one synthetic part: scale the fine characteristic, jitter
  // the coarse tap lengths, scatter the added RJ, and model the post-
  // calibration programming residual as DAC quantization + measurement
  // noise (per-instance calibration absorbs the systematic scatter, as
  // the analog table above shows).
  const auto unit_fn = [&](std::uint64_t unit, util::Rng& trial_rng,
                           campaign::AccumulatorSet& accs) {
    const double fine_scale =
        1.0 + pv.buffer_sigma_frac * trial_rng.gaussian();
    double worst_tap = 0.0;
    for (std::size_t t = 1; t < proto.tap_offset_ps.size(); ++t) {
      const double tap = proto.tap_offset_ps[t] +
                         pv.tap_length_sigma_ps * trial_rng.gaussian();
      worst_tap = std::max(worst_tap, tap);
    }
    const double rj = std::max(
        0.0, proto.added_rj_sigma_ps *
                 (1.0 + pv.noise_sigma_frac * trial_rng.gaussian()));
    const double fine_range = fine_span * fine_scale;
    const double total_range = fine_range + worst_tap;
    const double resolution = fine_range / 255.0;
    const double err =
        std::abs(resolution * (trial_rng.uniform() - 0.5)) +
        std::abs(rj / std::sqrt(96.0) * trial_rng.gaussian());
    const double rec[4] = {fine_range, total_range, resolution, err};
    accs[0]->add(unit, rec);
  };

  const auto acc_hash = [](const campaign::CampaignResult& r) {
    util::ByteWriter w;
    r.accumulators[0]->save(w);
    return util::fnv1a64(w.bytes().data(), w.bytes().size());
  };

  std::printf("  %7s %10s %12s %10s   %s\n", "shards", "mode", "trials/s",
              "speedup", "merged-state hash");
  bool determinism_ok = true;
  std::uint64_t ref_hash = 0;
  double t1 = 0.0, t8 = 0.0, rate_best = 0.0;
  campaign::CampaignResult last;
  for (const std::size_t shards : {1, 2, 4, 8}) {
    campaign::CampaignSpec spec;
    spec.name = "mc_matching";
    spec.seed = 20080;
    spec.n_units = kTrials;
    spec.n_shards = shards;
    const auto start = std::chrono::steady_clock::now();
    campaign::CampaignResult r = campaign::run_campaign(spec, factory,
                                                        unit_fn);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const std::uint64_t h = acc_hash(r);
    if (shards == 1) {
      ref_hash = h;
      t1 = secs;
    }
    if (shards == 8) t8 = secs;
    if (h != ref_hash) determinism_ok = false;
    const double rate = secs > 0.0 ? static_cast<double>(kTrials) / secs
                                   : 0.0;
    rate_best = std::max(rate_best, rate);
    std::printf("  %7zu %10s %12.3g %9.2fx   %016llx%s\n", shards,
                campaign::mode_name(r.mode), rate,
                secs > 0.0 ? t1 / secs : 0.0,
                static_cast<unsigned long long>(h),
                h == ref_hash ? "" : "  ** MISMATCH **");
    last = std::move(r);
  }
  const double speedup = t8 > 0.0 ? t1 / t8 : 0.0;
  std::printf("  shard-count invariance: %s; 8-vs-1 speedup %.2fx"
              " (%zu hardware threads)\n",
              determinism_ok ? "PASS" : "FAIL", speedup,
              static_cast<std::size_t>(
                  std::max(1u, std::thread::hardware_concurrency())));

  // Tail statistics from the merged per-trial records (unit order, so the
  // reduction itself is shard-invariant).
  const campaign::RecordAccumulator& recs = *last.accumulators[0];
  std::vector<double> c_fine, c_total, c_err;
  c_fine.reserve(recs.size());
  c_total.reserve(recs.size());
  c_err.reserve(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const double* v = recs.values_at(i);
    c_fine.push_back(v[0]);
    c_total.push_back(v[1]);
    c_err.push_back(v[3]);
  }
  const auto cfs = meas::summarize(c_fine);
  const auto cts = meas::summarize(c_total);
  const auto ces = meas::summarize(c_err);
  std::printf("  over %zu trials:\n", recs.size());
  std::printf("    fine range  %6.2f +/- %4.2f ps, min %6.2f  need > %.0f:"
              " %s\n",
              cfs.mean, cfs.stddev, cfs.min, R::kFineRangeNeededPs,
              cfs.min > R::kFineRangeNeededPs ? "PASS" : "FAIL");
  std::printf("    total range %6.2f +/- %4.2f ps, min %6.2f  need > %.0f:"
              " %s\n",
              cts.mean, cts.stddev, cts.min, R::kTotalRangePs,
              cts.min > R::kTotalRangePs ? "PASS" : "FAIL");
  std::printf("    prog error  %6.3f ps mean, worst %6.3f ps\n", ces.mean,
              ces.max);

  bench::CampaignStamp cs;
  cs.mode = campaign::mode_name(last.mode);
  cs.shards = last.n_shards;
  cs.units = static_cast<std::size_t>(last.units_done);
  cs.trials_per_sec = rate_best;
  cs.resumed = last.resumed;
  bench::write_figure_json(outdir, "mc_matching",
                           {{"fine_range_mean_ps", fs.mean},
                            {"fine_range_min_ps", fs.min},
                            {"total_range_min_ps", ts.min},
                            {"resolution_worst_ps", rs.max},
                            {"prog_error_worst_ps", es.max},
                            {"campaign_trials",
                             static_cast<double>(recs.size())},
                            {"campaign_fine_min_ps", cfs.min},
                            {"campaign_total_min_ps", cts.min},
                            {"campaign_err_worst_ps", ces.max},
                            {"campaign_speedup_8v1", speedup},
                            {"campaign_determinism_ok",
                             determinism_ok ? 1.0 : 0.0}},
                           &cs);
  if (!determinism_ok) {
    std::fprintf(stderr, "FAIL: merged campaign state drifted across shard "
                         "counts\n");
    return 1;
  }
  return 0;
}
