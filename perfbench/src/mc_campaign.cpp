// mc_campaign: Monte-Carlo matching on the edge model, orchestrated by
// the campaign module in thread mode (one shard per benchmark thread).
//
// The set-up fits the EdgeModelParams from an analog channel. One op runs
// the campaign of gdelay_tool's edge-model unit twice on the same spec:
// plain, then checkpointed (cut short by stop_after_units) and resumed.
// The resumed merged state must hash equal to the plain one. There is
// almost no analog work: the op exercises orchestration, serde writes and
// resume reads.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <system_error>

#include "campaign/campaign.h"
#include "core/calibration.h"
#include "core/channel.h"
#include "core/variation.h"
#include "fast/edge_model.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace gdelay;

constexpr std::uint64_t kUnits = 50000;
constexpr double kFig7FineRangePs = 53.0;

double seconds_since(std::int64_t t0) {
  return 1e-9 * static_cast<double>(now_ns() - t0);
}

struct EdgeModelUnit {
  fast::EdgeModelParams proto;
  core::ProcessVariation pv;
  double fine_span = 0.0;

  // One trial = one synthetic part drawn from the unit's substream, as
  // gdelay_tool's campaign unit: scaled fine characteristic, jittered
  // coarse taps, scattered added RJ, and the post-calibration residual.
  void operator()(std::uint64_t unit, util::Rng& rng,
                  campaign::AccumulatorSet& accs) const {
    const double fine_scale = 1.0 + pv.buffer_sigma_frac * rng.gaussian();
    double worst_tap = 0.0;
    for (std::size_t t = 1; t < proto.tap_offset_ps.size(); ++t) {
      const double tap =
          proto.tap_offset_ps[t] + pv.tap_length_sigma_ps * rng.gaussian();
      worst_tap = std::max(worst_tap, tap);
    }
    const double rj = std::max(
        0.0, proto.added_rj_sigma_ps * (1.0 + pv.noise_sigma_frac * rng.gaussian()));
    const double fine_range = fine_span * fine_scale;
    const double total_range = fine_range + worst_tap;
    const double resolution = fine_range / 255.0;
    const double err = std::abs(resolution * (rng.uniform() - 0.5)) +
                       std::abs(rj / std::sqrt(96.0) * rng.gaussian());
    const double rec[4] = {fine_range, total_range, resolution, err};
    static_cast<campaign::RecordAccumulator&>(*accs[0]).add(unit, rec);
  }
};

campaign::AccumulatorSet factory() {
  campaign::AccumulatorSet s;
  s.push_back(std::make_unique<campaign::RecordAccumulator>(4));
  return s;
}

const campaign::RecordAccumulator& records(const campaign::CampaignResult& r) {
  return static_cast<const campaign::RecordAccumulator&>(*r.accumulators[0]);
}

// Digest of the merged records: unit ids and their values, in unit order.
std::uint64_t records_digest(const campaign::RecordAccumulator& recs) {
  Digest d;
  d.u64(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) d.u64(recs.unit_at(i));
  if (recs.size())
    d.bytes(recs.values_at(0), recs.size() * recs.width() * sizeof(double));
  return d.value();
}

class McCampaign final : public Workload {
 public:
  McCampaign(std::uint64_t seed, const WorkloadOptions& opt)
      : seed_(seed), shards_(static_cast<std::size_t>(opt.threads)) {
    sig::SynthConfig sc;
    sc.rate_gbps = 3.2;
    const auto stim = sig::synthesize_nrz(sig::prbs(7, 96), sc);
    core::VariableDelayChannel ch(core::ChannelConfig::prototype(),
                                  stream_rng(seed, 1));
    core::DelayCalibrator::Options o;
    o.n_vctrl_points = 9;
    const std::int64_t t0 = now_ns();
    unit_.proto = fast::fit_edge_model(ch, stim.wf, stim.unit_interval_ps, o);
    fit_s_ = seconds_since(t0);
    unit_.fine_span = unit_.proto.fine_curve.y_span();

    dir_ = opt.workdir + "/ckpt";
  }

  ~McCampaign() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::size_t ops_per_pass() const override { return 1; }
  bool concurrent_ops() const override { return false; }
  double paper_value() const override { return kFig7FineRangePs; }
  double fit_s() const override { return fit_s_; }

  OpOutcome run_op(std::size_t, OpClock& clock) override {
    campaign::CampaignSpec spec;
    spec.name = "perfbench";
    spec.seed = seed_;
    spec.n_units = kUnits;
    spec.n_shards = shards_;
    spec.mode = campaign::Mode::kThread;

    const auto plain_unit = [this](std::uint64_t u, util::Rng& rng,
                                   campaign::AccumulatorSet& accs) {
      unit_(u, rng, accs);
    };
    const auto traced_unit = [this](std::uint64_t u, util::Rng& rng,
                                    campaign::AccumulatorSet& accs) {
      const std::int64_t t0 = now_ns();
      unit_(u, rng, accs);
      Tracer::instance().add_detached(Layer::kCampaignUnit, now_ns() - t0, 1);
    };
    const campaign::UnitFn unit_fn =
        clock.traced() ? campaign::UnitFn(traced_unit) : campaign::UnitFn(plain_unit);

    OpOutcome out;
    std::int64_t t0 = now_ns();
    campaign::CampaignResult plain;
    {
      ScopedSpan span(Layer::kCampaignRun);
      plain = campaign::run_campaign(spec, factory, unit_fn);
    }
    out.plain_s = seconds_since(t0);

    campaign::CampaignSpec ckpt = spec;
    ckpt.checkpoint_dir = dir_;
    std::filesystem::create_directories(dir_);
    const std::uint64_t per_shard = kUnits / shards_;
    ckpt.checkpoint_every = std::max<std::uint64_t>(1, per_shard / 4);
    ckpt.stop_after_units = std::max<std::uint64_t>(1, per_shard / 2);
    t0 = now_ns();
    campaign::CampaignResult stopped;
    {
      ScopedSpan span(Layer::kCampaignStop);
      stopped = campaign::run_campaign(ckpt, factory, unit_fn);
    }
    for (std::size_t s = 0; s < shards_; ++s) {
      std::error_code ec;
      const auto n =
          std::filesystem::file_size(campaign::shard_checkpoint_path(ckpt, s), ec);
      if (!ec) out.checkpoint_bytes += n;
    }
    ckpt.stop_after_units = 0;
    const std::int64_t t_resume = now_ns();
    campaign::CampaignResult resumed;
    {
      ScopedSpan span(Layer::kCampaignResume);
      resumed = campaign::run_campaign(ckpt, factory, unit_fn);
    }
    out.resume_s = seconds_since(t_resume);
    out.ckpt_s = seconds_since(t0);
    campaign::remove_checkpoints(ckpt);
    clock.stop();

    const campaign::RecordAccumulator& recs = records(plain);
    out.digest = records_digest(recs);
    out.units = plain.units_done + resumed.units_done;
    double fine = 0.0;
    for (std::size_t i = 0; i < recs.size(); ++i) fine += recs.values_at(i)[0];
    out.figure = recs.size() ? fine / static_cast<double>(recs.size()) : 0.0;

    if (!plain.complete || plain.units_done != kUnits)
      out.why = "plain campaign incomplete";
    else if (stopped.complete)
      out.why = "checkpointed campaign was not cut short";
    else if (!resumed.complete || !resumed.resumed)
      out.why = "resumed campaign incomplete";
    else if (records_digest(records(resumed)) != out.digest)
      out.why = "resumed merged state differs from the plain run";
    out.ok = out.why.empty();
    return out;
  }

 private:
  std::uint64_t seed_;
  std::size_t shards_;
  EdgeModelUnit unit_;
  double fit_s_ = 0.0;
  std::string dir_;
};

}  // namespace

std::unique_ptr<Workload> make_mc_campaign(std::uint64_t seed,
                                           const WorkloadOptions& opt) {
  return std::make_unique<McCampaign>(seed, opt);
}

}  // namespace perfbench
