// Campaign orchestrator determinism gates (ours): the merged result of a
// sharded extreme-statistics run must be bit-identical for ANY shard
// count, ANY execution mode (serial loop, pool threads) and ANY resume
// point. This bench runs a representative workload — per-unit NRZ
// synthesis folded into a per-unit record set — through the full matrix
// and exits nonzero on the first drift, so CI can hold the invariant.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "campaign/campaign.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"
#include "util/serde.h"

using namespace gdelay;

namespace {

/// One hash over every accumulator's serialized state — the identity the
/// whole matrix is compared against.
std::uint64_t result_hash(const campaign::CampaignResult& r) {
  util::ByteWriter w;
  for (const auto& acc : r.accumulators) acc->save(w);
  return util::fnv1a64(w.bytes().data(), w.bytes().size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outdir = bench::parse_outdir(&argc, argv);
  bench::banner("Campaign determinism: shards x modes x resume",
                "(ours; extreme-statistics orchestration contract)");

  constexpr std::uint64_t kUnits = 256;
  const sig::BitPattern bits = sig::prbs(7, 16);
  sig::SynthConfig scfg;
  scfg.rate_gbps = 3.2;
  scfg.dt_ps = 2.0;
  scfg.lead_in_ps = 100.0;
  scfg.tail_ps = 100.0;
  scfg.rj_sigma_ps = 1.2;
  scfg.dj_pp_ps = 6.0;

  const auto factory = [] {
    campaign::AccumulatorSet s;
    s.push_back(std::make_unique<campaign::RecordAccumulator>(2));
    return s;
  };
  const auto unit_fn = [&](std::uint64_t unit, util::Rng& rng,
                           campaign::AccumulatorSet& accs) {
    const auto res = sig::synthesize_nrz(bits, scfg, &rng);
    const auto& v = res.wf.samples();
    double mean = 0.0, peak = 0.0;
    for (double x : v) {
      mean += x;
      peak = std::max(peak, std::abs(x));
    }
    mean /= static_cast<double>(v.size());
    const double rec[2] = {mean, peak};
    accs[0]->add(unit, rec);
  };

  const auto base_spec = [&] {
    campaign::CampaignSpec spec;
    spec.name = "bench_campaign";
    spec.seed = 4242;
    spec.n_units = kUnits;
    return spec;
  };

  const std::vector<campaign::Mode> modes = {campaign::Mode::kSerial,
                                             campaign::Mode::kThread};

  std::size_t checked = 0, drifted = 0;
  std::uint64_t ref_hash = 0;
  double units_per_sec = 0.0;
  campaign::CampaignResult stamp_result;

  bench::section("Shard-count x mode invariance");
  std::printf("  %8s %7s %10s %8s   %s\n", "mode", "shards", "units/s",
              "status", "merged-state hash");
  for (const campaign::Mode mode : modes) {
    for (const std::size_t shards : {1, 2, 4, 8}) {
      campaign::CampaignSpec spec = base_spec();
      spec.mode = mode;
      spec.n_shards = shards;
      const auto start = std::chrono::steady_clock::now();
      campaign::CampaignResult r =
          campaign::run_campaign(spec, factory, unit_fn);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      const std::uint64_t h = result_hash(r);
      if (checked == 0) ref_hash = h;
      const bool ok = h == ref_hash && r.complete &&
                      r.units_done == kUnits;
      ++checked;
      if (!ok) ++drifted;
      if (secs > 0.0)
        units_per_sec = std::max(
            units_per_sec, static_cast<double>(kUnits) / secs);
      std::printf("  %8s %7zu %10.3g %8s   %016llx\n",
                  campaign::mode_name(r.mode), shards,
                  secs > 0.0 ? static_cast<double>(kUnits) / secs : 0.0,
                  ok ? "ok" : "DRIFT",
                  static_cast<unsigned long long>(h));
      if (mode == modes.back() && shards == 4) stamp_result = std::move(r);
    }
  }

  bench::section("Kill + resume at a mid-campaign checkpoint");
  const std::string ckpt_dir = outdir + "/campaign_ckpt";
  for (const campaign::Mode mode : modes) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      campaign::CampaignSpec spec = base_spec();
      spec.mode = mode;
      spec.n_shards = shards;
      spec.checkpoint_dir = ckpt_dir;
      spec.checkpoint_every = 16;
      // Deterministic stand-in for a mid-campaign kill: every shard stops
      // after processing half of a 4-way shard's range.
      spec.stop_after_units = kUnits / shards / 2;
      const campaign::CampaignResult part =
          campaign::run_campaign(spec, factory, unit_fn);
      spec.stop_after_units = 0;
      const campaign::CampaignResult full =
          campaign::run_campaign(spec, factory, unit_fn);
      const std::uint64_t h = result_hash(full);
      const bool ok = !part.complete && full.complete && full.resumed &&
                      h == ref_hash;
      ++checked;
      if (!ok) ++drifted;
      std::printf("  %8s %7zu  stopped at %llu/%llu, resumed -> %s"
                  "   %016llx\n",
                  campaign::mode_name(full.mode), shards,
                  static_cast<unsigned long long>(part.units_done),
                  static_cast<unsigned long long>(kUnits),
                  ok ? "identical" : "DRIFT",
                  static_cast<unsigned long long>(h));
      campaign::remove_checkpoints(spec);
    }
  }

  std::printf("\n  %zu configurations checked, %zu drifted: %s\n", checked,
              drifted, drifted == 0 ? "PASS" : "FAIL");

  bench::CampaignStamp cs;
  cs.mode = campaign::mode_name(stamp_result.mode);
  cs.shards = stamp_result.n_shards;
  cs.units = static_cast<std::size_t>(stamp_result.units_done);
  cs.trials_per_sec = units_per_sec;
  cs.resumed = stamp_result.resumed;
  bench::write_figure_json(
      outdir, "campaign",
      {{"configs_checked", static_cast<double>(checked)},
       {"configs_drifted", static_cast<double>(drifted)},
       {"units_per_sec_best", units_per_sec},
       {"modes_available", static_cast<double>(modes.size())}},
      &cs);
  if (drifted) {
    std::fprintf(stderr,
                 "FAIL: campaign determinism contract violated in %zu "
                 "configuration(s)\n",
                 drifted);
    return 1;
  }
  return 0;
}
