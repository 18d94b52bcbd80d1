// gdelay_tool — command-line front end to the library.
//
//   gdelay_tool characterize [--rate R] [--bits N] [--seed S]
//       Build the prototype channel, run the full calibration and print
//       the Fig. 7/9-style characterization summary.
//
//   gdelay_tool calibrate --out FILE [--rate R] [--bits N] [--seed S]
//       Calibrate and persist the table (text format, see core/cal_io.h).
//
//   gdelay_tool plan --cal FILE --delay PS
//       Load a calibration and print the (tap, DAC code) realizing PS.
//
//   gdelay_tool deskew [--lanes N] [--skew PS] [--seed S]
//       Run the full bus-deskew flow and print the before/after report.
//
//   gdelay_tool campaign [--units N] [--shards S] [--mode M] [--seed S]
//                        [--ckpt DIR] [--every K] [--stop-after N]
//       Run the built-in Monte-Carlo matching campaign (perturbed
//       edge-model trials) through the orchestrator. --mode accepts
//       serial or thread (the default); --shards defaults to 4. The
//       merged-state hash printed at the end is identical for every
//       mode, shard count and resume point.
//
//   gdelay_tool --backends
//       List the compute backends known to this build, their
//       availability on this machine, and the active dispatch reason.
//
//   gdelay_tool --version
//       Print the git revision this binary was built from and the
//       BENCH_*.json schema version it writes/understands.
//
// Numeric flags must be a whole finite number (counts: a non-negative
// integer); anything else is a usage error. All randomness is seeded;
// identical invocations produce identical output.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "ate/bus.h"
#include "ate/controller.h"
#include "backend/backend.h"
#include "bench/common.h"
#include "campaign/campaign.h"
#include "core/cal_io.h"
#include "core/calibration.h"
#include "core/channel.h"
#include "core/requirements.h"
#include "core/variation.h"
#include "fast/edge_model.h"
#include "measure/stats.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "util/rng.h"
#include "util/serde.h"

using namespace gdelay;

namespace {

struct Args {
  std::string command;
  double rate_gbps = 3.2;
  std::size_t bits = 96;
  std::uint64_t seed = 2008;
  std::string cal_path;
  std::string out_path;
  double delay_ps = 50.0;
  int lanes = 4;
  double skew_ps = 120.0;
  // campaign
  std::uint64_t units = 20000;
  std::size_t shards = campaign::kDefaultShards;
  campaign::Mode mode = campaign::Mode::kThread;
  std::string ckpt_dir;
  std::uint64_t every = 0;
  std::uint64_t stop_after = 0;
};

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "usage: gdelay_tool <characterize|calibrate|plan|deskew"
               "|campaign> [options]\n"
               "  common : --rate GBPS --bits N --seed S\n"
               "  calibrate: --out FILE\n"
               "  plan   : --cal FILE --delay PS\n"
               "  deskew : --lanes N --skew PS\n"
               "  campaign: --units N --shards S --mode serial|thread\n"
               "            --ckpt DIR --every K --stop-after N\n"
               "  --backends : list compute backends and exit\n"
               "  --version  : print git revision + BENCH schema and exit\n");
  std::exit(code);
}

// The one parser behind every numeric flag: the whole value must parse
// as a T, with no trailing junk; reals must be finite and integers
// non-negative (counts, seeds). Anything else is a usage error.
template <typename T>
T parse_number(const std::string& flag, const char* text) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  bool ok = ec == std::errc() && ptr == end && ptr != text;
  if constexpr (std::is_floating_point_v<T>)
    ok = ok && std::isfinite(v);
  else if constexpr (std::is_signed_v<T>)
    ok = ok && v >= 0;  // unsigned from_chars already rejects a '-'
  if (!ok) {
    std::fprintf(stderr, "%s: '%s' is not a %s\n", flag.c_str(), text,
                 std::is_floating_point_v<T> ? "finite number"
                                             : "non-negative integer");
    usage(2);
  }
  return v;
}

[[noreturn]] void print_backends() {
  std::fputs(backend::list_backends().c_str(), stdout);
  std::exit(0);
}

[[noreturn]] void print_version() {
  std::printf("gdelay_tool %s (bench json schema %d)\n", GDELAY_GIT_REV,
              bench::kBenchJsonSchema);
  std::exit(0);
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) usage(2);
  a.command = argv[1];
  if (a.command == "--backends") print_backends();
  if (a.command == "--version") print_version();
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    auto number = [&](auto& field) {
      field = parse_number<std::remove_reference_t<decltype(field)>>(
          key, value());
    };
    if (key == "--backends") print_backends();
    else if (key == "--rate") number(a.rate_gbps);
    else if (key == "--bits") number(a.bits);
    else if (key == "--seed") number(a.seed);
    else if (key == "--cal") a.cal_path = value();
    else if (key == "--out") a.out_path = value();
    else if (key == "--delay") number(a.delay_ps);
    else if (key == "--lanes") number(a.lanes);
    else if (key == "--skew") number(a.skew_ps);
    else if (key == "--units") number(a.units);
    else if (key == "--shards") number(a.shards);
    else if (key == "--mode") a.mode = campaign::parse_mode(value());
    else if (key == "--ckpt") a.ckpt_dir = value();
    else if (key == "--every") number(a.every);
    else if (key == "--stop-after") number(a.stop_after);
    else if (key == "--help" || key == "-h") usage(0);
    else {
      std::fprintf(stderr, "unknown option '%s'\n", key.c_str());
      usage(2);
    }
  }
  return a;
}

core::ChannelCalibration calibrate_prototype(const Args& a) {
  util::Rng rng(a.seed);
  sig::SynthConfig sc;
  sc.rate_gbps = a.rate_gbps;
  const auto stim = sig::synthesize_nrz(sig::prbs(7, a.bits), sc);
  core::VariableDelayChannel ch(core::ChannelConfig::prototype(),
                                rng.fork(1));
  core::DelayCalibrator::Options o;
  o.n_vctrl_points = 13;
  return core::DelayCalibrator(o).calibrate(ch, stim.wf);
}

int cmd_characterize(const Args& a) {
  const auto cal = calibrate_prototype(a);
  std::printf("prototype channel @ %.2f Gbps PRBS7 (%zu bits, seed %llu)\n",
              a.rate_gbps, a.bits,
              static_cast<unsigned long long>(a.seed));
  std::printf("  fine range   : %7.2f ps\n", cal.fine_range_ps());
  std::printf("  total range  : %7.2f ps (requirement > %.0f)\n",
              cal.total_range_ps(), core::Requirements::kTotalRangePs);
  std::printf("  base latency : %7.2f ps\n", cal.base_latency_ps);
  std::printf("  taps         : %.2f / %.2f / %.2f / %.2f ps\n",
              cal.tap_offset_ps[0], cal.tap_offset_ps[1],
              cal.tap_offset_ps[2], cal.tap_offset_ps[3]);
  std::printf("  resolution   : %7.4f ps/LSB (%d-bit DAC)\n",
              cal.resolution_ps(), cal.dac.bits());
  return 0;
}

int cmd_calibrate(const Args& a) {
  if (a.out_path.empty()) usage(2);
  const auto cal = calibrate_prototype(a);
  core::save_calibration(a.out_path, cal);
  std::printf("calibration written to %s (%zu curve points)\n",
              a.out_path.c_str(), cal.fine_curve.size());
  return 0;
}

int cmd_plan(const Args& a) {
  if (a.cal_path.empty()) usage(2);
  const auto cal = core::load_calibration(a.cal_path);
  const auto s = cal.plan(a.delay_ps);
  std::printf("target %.2f ps -> tap %d, DAC code %u (Vctrl %.4f V), "
              "predicted %.2f ps (err %+.3f)\n",
              a.delay_ps, s.tap, s.dac_code, s.vctrl_v,
              s.predicted_delay_ps, s.predicted_delay_ps - a.delay_ps);
  return 0;
}

int cmd_deskew(const Args& a) {
  util::Rng rng(a.seed);
  ate::AteBusConfig bc;
  bc.n_channels = a.lanes;
  bc.rate_gbps = 6.4;
  bc.skew_span_ps = a.skew_ps;
  bc.rj_sigma_ps = 0.8;
  ate::AteBus bus(bc, rng.fork(1));
  std::vector<core::VariableDelayChannel> delays;
  for (int i = 0; i < a.lanes; ++i)
    delays.emplace_back(core::ChannelConfig::prototype(),
                        rng.fork(10 + static_cast<std::uint64_t>(i)));
  ate::DeskewController::Options opt;
  opt.training = sig::prbs(7, a.bits);
  opt.calibration.n_vctrl_points = 13;
  ate::DeskewController ctl(bus, delays, opt);
  const auto rep = ctl.run();
  for (std::size_t i = 0; i < rep.plan.settings.size(); ++i)
    std::printf("lane %zu: tap %d DAC %4u -> residual %+6.2f ps\n", i,
                rep.plan.settings[i].tap, rep.plan.settings[i].dac_code,
                rep.arrival_after_ps[i] - rep.plan.target_arrival_ps);
  std::printf("skew: %.1f ps -> %.2f ps (%s)\n", rep.span_before_ps,
              rep.span_after_ps,
              rep.span_after_ps < core::Requirements::kChannelSkewPs
                  ? "PASS" : "FAIL");
  return rep.span_after_ps < core::Requirements::kChannelSkewPs ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Campaign: the built-in Monte-Carlo matching workload, derived from the
// (seed, rate, bits) arguments.
// ---------------------------------------------------------------------------

struct CampaignWorkload {
  fast::EdgeModelParams proto;
  core::ProcessVariation pv;
  double fine_span = 0.0;
};

CampaignWorkload make_workload(const Args& a) {
  util::Rng rng(a.seed);
  sig::SynthConfig sc;
  sc.rate_gbps = a.rate_gbps;
  const auto stim = sig::synthesize_nrz(sig::prbs(7, a.bits), sc);
  core::VariableDelayChannel ch(core::ChannelConfig::prototype(),
                                rng.fork(1));
  core::DelayCalibrator::Options o;
  o.n_vctrl_points = 9;
  CampaignWorkload w;
  w.proto = fast::fit_edge_model(ch, stim.wf, stim.unit_interval_ps, o);
  w.fine_span = w.proto.fine_curve.y_span();
  return w;
}

campaign::AccumulatorSet campaign_factory() {
  campaign::AccumulatorSet s;
  s.push_back(std::make_unique<campaign::RecordAccumulator>(4));
  return s;
}

// One trial = one synthetic part drawn from the unit's private
// substream: scaled fine characteristic, jittered coarse taps, scattered
// added RJ, post-calibration residual = quantization + measurement noise.
void campaign_unit(const CampaignWorkload& w, std::uint64_t unit,
                   util::Rng& rng, campaign::AccumulatorSet& accs) {
  const double fine_scale = 1.0 + w.pv.buffer_sigma_frac * rng.gaussian();
  double worst_tap = 0.0;
  for (std::size_t t = 1; t < w.proto.tap_offset_ps.size(); ++t) {
    const double tap = w.proto.tap_offset_ps[t] +
                       w.pv.tap_length_sigma_ps * rng.gaussian();
    worst_tap = std::max(worst_tap, tap);
  }
  const double rj =
      std::max(0.0, w.proto.added_rj_sigma_ps *
                        (1.0 + w.pv.noise_sigma_frac * rng.gaussian()));
  const double fine_range = w.fine_span * fine_scale;
  const double total_range = fine_range + worst_tap;
  const double resolution = fine_range / 255.0;
  const double err = std::abs(resolution * (rng.uniform() - 0.5)) +
                     std::abs(rj / std::sqrt(96.0) * rng.gaussian());
  const double rec[4] = {fine_range, total_range, resolution, err};
  accs[0]->add(unit, rec);
}

campaign::CampaignSpec make_campaign_spec(const Args& a) {
  campaign::CampaignSpec spec;
  spec.name = "cli";
  spec.seed = a.seed;
  spec.n_units = a.units;
  spec.n_shards = a.shards;
  spec.mode = a.mode;
  spec.checkpoint_dir = a.ckpt_dir;
  spec.checkpoint_every = a.every;
  spec.stop_after_units = a.stop_after;
  return spec;
}

int print_campaign_result(const campaign::CampaignResult& r) {
  const campaign::RecordAccumulator& recs = *r.accumulators[0];
  std::vector<double> fine, total, err;
  fine.reserve(recs.size());
  total.reserve(recs.size());
  err.reserve(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const double* v = recs.values_at(i);
    fine.push_back(v[0]);
    total.push_back(v[1]);
    err.push_back(v[3]);
  }
  util::ByteWriter w;
  for (const auto& acc : r.accumulators) acc->save(w);
  const std::uint64_t hash =
      util::fnv1a64(w.bytes().data(), w.bytes().size());
  std::printf("campaign: %llu units over %zu shards (%s), %s%s\n",
              static_cast<unsigned long long>(r.units_done), r.n_shards,
              campaign::mode_name(r.mode),
              r.complete ? "complete" : "stopped early",
              r.resumed ? ", resumed from checkpoint" : "");
  if (!fine.empty()) {
    const auto fs = meas::summarize(fine);
    const auto ts = meas::summarize(total);
    const auto es = meas::summarize(err);
    std::printf("  fine range  %6.2f +/- %.2f ps (min %6.2f)\n", fs.mean,
                fs.stddev, fs.min);
    std::printf("  total range %6.2f +/- %.2f ps (min %6.2f)\n", ts.mean,
                ts.stddev, ts.min);
    std::printf("  prog error  %6.3f ps mean, worst %.3f ps\n", es.mean,
                es.max);
  }
  std::printf("  state hash %016llx\n",
              static_cast<unsigned long long>(hash));
  return 0;
}

int cmd_campaign(const Args& a) {
  const CampaignWorkload w = make_workload(a);
  return print_campaign_result(campaign::run_campaign(
      make_campaign_spec(a), campaign_factory,
      [&](std::uint64_t unit, util::Rng& rng,
          campaign::AccumulatorSet& accs) {
        campaign_unit(w, unit, rng, accs);
      }));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.command == "characterize") return cmd_characterize(a);
    if (a.command == "calibrate") return cmd_calibrate(a);
    if (a.command == "plan") return cmd_plan(a);
    if (a.command == "deskew") return cmd_deskew(a);
    if (a.command == "campaign") return cmd_campaign(a);
    std::fprintf(stderr, "unknown command '%s'\n", a.command.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage(2);
}
