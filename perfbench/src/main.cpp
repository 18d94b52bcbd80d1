// gdelay_perfbench: runs one workload for a fixed time and prints its
// metrics as the last line of stdout.
//
//   gdelay_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--workdir DIR]
//
// A run sets the workload up several times (setup_s is the median), runs
// one untimed pass that fixes the reference digest of every op, then
// repeats passes until --seconds have passed. The gated times are CPU
// times, which a shared host's time-slicing leaves out, scaled by a
// host-speed probe run between passes; the wall times are printed beside
// them on the `report` line. With --trace 1, passes
// alternate untraced and traced, every op's digest is still checked
// against the reference, and the per-layer split is printed instead of
// the end-to-end metrics.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "host.h"
#include "probe.h"
#include "stats.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr int kMaxThreads = 4;
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 1000;
constexpr double kSetupBudgetS = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench_work";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "gdelay_perfbench: %s\n"
               "usage: gdelay_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--workdir DIR]\n"
               "workloads:",
               msg);
  for (const WorkloadEntry& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || s[0] == '-' || *end != '\0' || errno != 0)
    usage((std::string("bad value for ") + flag + ": " + s).c_str());
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = parse_u64(val, "--seed");
    } else if (key == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(val, "--seconds"));
      if (a.seconds < 1) usage("--seconds must be at least 1");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (key == "--workdir") {
      a.workdir = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

struct OpRecord {
  OpOutcome out;
  double latency_s = 0.0;
  double cpu_s = 0.0;
};

OpRecord run_one(Workload& w, std::size_t i, bool traced, std::uint64_t op_id) {
  OpRecord r;
  OpClock clock(traced, op_id, !w.concurrent_ops());
  try {
    r.out = w.run_op(i, clock);
  } catch (const std::exception& e) {
    r.out.ok = false;
    r.out.why = std::string("threw: ") + e.what();
  }
  clock.stop();
  r.latency_s = clock.seconds();
  r.cpu_s = clock.cpu_seconds();
  return r;
}

std::vector<OpRecord> run_pass(Workload& w, bool traced, std::uint64_t pass) {
  const std::size_t n = w.ops_per_pass();
  std::vector<OpRecord> recs(n);
  Tracer::instance().enable(traced);
  if (w.concurrent_ops()) {
    gdelay::util::parallel_for(n, [&](std::size_t i) {
      recs[i] = run_one(w, i, traced, pass * n + i);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i)
      recs[i] = run_one(w, i, traced, pass * n + i);
  }
  Tracer::instance().enable(false);
  return recs;
}

/// Collects "name": {"value": v, "unit": u} entries in order.
class MetricList {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      finite_ = false;
      value = -1.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  std::string json() const { return "{" + body_ + "}"; }
  bool all_finite() const { return finite_; }

 private:
  std::string body_;
  bool finite_ = true;
};

double pct(std::int64_t part_ns, double whole_ns) {
  return whole_ns > 0.0 ? 100.0 * static_cast<double>(part_ns) / whole_ns : 0.0;
}

double msamples_per_s(const LayerTotals& t) {
  return t.busy_ns > 0 ? 1e3 * static_cast<double>(t.samples) /
                             static_cast<double>(t.busy_ns)
                       : 0.0;
}

int run(const Args& args, const WorkloadEntry* entry) {
  const int threads = std::min(kMaxThreads, host_nproc());
  gdelay::util::set_thread_count(threads);
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) usage(("cannot create workdir " + args.workdir).c_str());

  std::printf("stamp %s\n",
              stamp_json({args.workload, args.seed, threads, args.trace}).c_str());
  std::fflush(stdout);

  WorkloadOptions wopt;
  wopt.threads = threads;
  wopt.workdir = args.workdir;

  // Set-up: stimulus planning, device and bus construction, model fits.
  // In each round every benchmark thread builds its own copy at once, so
  // the machine is as loaded as in the timed body; a round's reading is
  // the process's CPU time over the copies built, which counts a set-up
  // that fans out over the pool whole. Rounds repeat until kSetupBudgetS
  // of wall time has passed, so a set-up of a millisecond is read as a
  // median of hundreds of rounds.
  std::vector<double> setup_times, setup_walls;
  std::vector<std::unique_ptr<Workload>> built(threads);
  const std::int64_t setup0 = now_ns();
  while (setup_times.size() < kMinSetupReps ||
         (1e-9 * static_cast<double>(now_ns() - setup0) < kSetupBudgetS &&
          setup_times.size() < kMaxSetupReps)) {
    for (auto& b : built) b.reset();
    const std::int64_t c0 = cpu_ns(true);
    const std::int64_t r0 = now_ns();
    gdelay::util::parallel_for(built.size(), [&](std::size_t t) {
      built[t] = entry->make(args.seed, wopt);
    });
    setup_walls.push_back(1e-9 * static_cast<double>(now_ns() - r0));
    setup_times.push_back(1e-9 * static_cast<double>(cpu_ns(true) - c0) /
                          static_cast<double>(threads));
  }
  std::unique_ptr<Workload> w = std::move(built[0]);
  built.clear();
  const std::size_t n_ops = w->ops_per_pass();

  // Reference pass: fixes each op's digest and the paper figure.
  const std::vector<OpRecord> ref = run_pass(*w, false, 0);
  std::size_t attempted = n_ops;
  std::size_t failed = 0;
  Digest pass_digest;
  double figure_sum = 0.0;
  std::size_t figure_n = 0;
  std::uint64_t stream_samples = 0, edges = 0, units = 0, ckpt_bytes = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    const OpOutcome& o = ref[i].out;
    pass_digest.u64(o.digest);
    if (!o.ok) {
      ++failed;
      std::fprintf(stderr, "op %zu failed: %s\n", i, o.why.c_str());
    }
    if (std::isfinite(o.figure)) {
      figure_sum += o.figure;
      ++figure_n;
    }
    stream_samples += o.stream_samples;
    edges += o.edges;
    units += o.units;
    ckpt_bytes += o.checkpoint_bytes;
  }
  bool pinned_ok = true;
  const bool pinned_applies = args.seed == kDefaultSeed &&
                              std::string(gdelay::backend::active().name) == "scalar";
  if (pinned_applies && pass_digest.value() != entry->pinned_digest) {
    pinned_ok = false;
    std::fprintf(stderr, "digest %016llx differs from the pinned %016llx\n",
                 static_cast<unsigned long long>(pass_digest.value()),
                 static_cast<unsigned long long>(entry->pinned_digest));
  }
  const double figure = figure_n ? figure_sum / static_cast<double>(figure_n) : NAN;
  const double paper = w->paper_value();
  const double paper_err_pct = 100.0 * std::abs(figure - paper) / paper;

  // Timed body.
  std::vector<double> pass_walls, pass_cpus;
  std::vector<std::vector<double>> lat_plain(n_ops), lat_traced(n_ops);
  std::vector<std::vector<double>> cpu_plain(n_ops);
  std::vector<double> plain_s, ckpt_s, resume_s;
  std::uint64_t samples = 0, body_units = 0;
  // Host-speed probes fill a tenth of the body's wall time, spread between
  // passes, so they see the same drift of the host's speed as the passes.
  std::vector<double> probes;
  std::int64_t probe_wall_ns = 0;
  double all_pass_cpu = 0.0, all_pass_wall = 0.0;
  const std::int64_t body0 = now_ns();
  for (std::uint64_t pass = 1;; ++pass) {
    const double elapsed = 1e-9 * static_cast<double>(now_ns() - body0);
    const bool need_traced = args.trace && pass <= 2;
    if (elapsed >= args.seconds && !need_traced) break;
    const bool traced = args.trace && pass % 2 == 0;
    while (probe_wall_ns == 0 || probe_wall_ns < (now_ns() - body0) / 10) {
      const std::int64_t q0 = now_ns();
      const std::vector<double> p = probe_host_speed(threads);
      probes.insert(probes.end(), p.begin(), p.end());
      probe_wall_ns += now_ns() - q0;
    }
    const std::int64_t c0 = cpu_ns(true);
    const std::int64_t p0 = now_ns();
    const std::vector<OpRecord> recs = run_pass(*w, traced, pass);
    const double wall = 1e-9 * static_cast<double>(now_ns() - p0);
    const double cpu = 1e-9 * static_cast<double>(cpu_ns(true) - c0);
    all_pass_cpu += cpu;
    all_pass_wall += wall;
    if (!traced) {
      pass_walls.push_back(wall);
      pass_cpus.push_back(cpu);
    }
    for (std::size_t i = 0; i < n_ops; ++i) {
      const OpRecord& r = recs[i];
      ++attempted;
      if (!r.out.ok || r.out.digest != ref[i].out.digest) {
        ++failed;
        std::fprintf(stderr, "pass %llu op %zu%s failed: %s\n",
                     static_cast<unsigned long long>(pass), i,
                     traced ? " (traced)" : "",
                     r.out.ok ? "digest differs from the reference pass"
                              : r.out.why.c_str());
      }
      (traced ? lat_traced : lat_plain)[i].push_back(r.latency_s);
      if (!traced) {
        cpu_plain[i].push_back(r.cpu_s);
        samples += r.out.samples;
        body_units += r.out.units;
        if (r.out.plain_s > 0.0) {
          plain_s.push_back(r.out.plain_s);
          ckpt_s.push_back(r.out.ckpt_s);
          resume_s.push_back(r.out.resume_s);
        }
      }
    }
  }
  const double cpu_util = all_pass_cpu / (threads * all_pass_wall);
  const double host_speed = kProbeReferenceS / median(probes);
  if (!pinned_ok) failed = attempted;

  std::vector<double> op_ms;
  for (const auto& v : lat_plain)
    for (double s : v) op_ms.push_back(1e3 * s);
  double plain_wall = 0.0;
  for (double s : pass_walls) plain_wall += s;
  // A pass's ops differ in cost, so the median over all op timings jumps
  // between op kinds; each op's own median, averaged over the pass, does not.
  double op_cpu_ms = 0.0;
  for (const auto& v : cpu_plain)
    op_cpu_ms += 1e3 * median(v) / static_cast<double>(n_ops);
  const double setup_s = host_speed * median(setup_times);
  const double pass_cpu_s = host_speed * median(pass_cpus);
  op_cpu_ms *= host_speed;

  MetricList metrics;
  MetricList report;  // Everything, printed on its own line for people.
  report.add("setup_s", setup_s, "s");
  report.add("setup_reps", static_cast<double>(setup_times.size()), "count");
  report.add("pass_cpu_s", pass_cpu_s, "s");
  report.add("op_cpu_ms", op_cpu_ms, "ms");
  report.add("host_speed", host_speed, "frac");
  report.add("wall_s", median(pass_walls), "s");
  report.add("op_ms_p50", median(op_ms), "ms");
  if (percentile_reportable(op_ms.size(), 0.9))
    report.add("op_ms_p90", quantile(op_ms, 0.9), "ms");
  report.add("ops", static_cast<double>(op_ms.size()), "count");
  if (samples > 0) report.add("msamples_per_s", 1e-6 * samples / plain_wall, "Ms/s");
  if (body_units > 0) report.add("trials_per_s", body_units / plain_wall, "1/s");
  report.add("peak_rss_mib", peak_rss_mib(), "MiB");
  report.add("failed_frac", static_cast<double>(failed) / attempted, "frac");
  report.add("paper_err_pct", paper_err_pct, "%");
  report.add("paper_figure", figure, "ps");
  report.add("cpu_util", cpu_util, "frac");

  if (!args.trace) {
    metrics.add("setup_s", setup_s, "s");
    metrics.add("pass_cpu_s", pass_cpu_s, "s");
    metrics.add("op_cpu_ms", op_cpu_ms, "ms");
    metrics.add("peak_rss_mib", peak_rss_mib(), "MiB");
  } else {
    const Totals t = Tracer::instance().totals();
    const auto at = [&](Layer l) { return t[static_cast<std::size_t>(l)]; };
    const double op_ns = static_cast<double>(at(Layer::kOp).busy_ns);
    const auto busy = [&](Layer l) { return pct(at(l).busy_ns, op_ns); };

    double traced_sum = 0.0, plain_sum = 0.0;
    for (std::size_t i = 0; i < n_ops; ++i) {
      traced_sum += median(lat_traced[i]);
      plain_sum += median(lat_plain[i]);
    }
    const double ckpt_overhead_pct =
        plain_s.empty() ? 0.0
                        : 100.0 * (median(ckpt_s) - median(plain_s)) / median(plain_s);
    const double resume_pct =
        ckpt_s.empty() ? 0.0 : 100.0 * median(resume_s) / median(ckpt_s);

    metrics.add("core.jitter_injector.busy_pct", busy(Layer::kJitterInjector), "%");
    metrics.add("core.jitter_injector.msamples_per_s",
                msamples_per_s(at(Layer::kJitterInjector)), "Ms/s");
    metrics.add("core.coarse_delay.busy_pct", busy(Layer::kCoarseDelay), "%");
    metrics.add("core.coarse_delay.msamples_per_s",
                msamples_per_s(at(Layer::kCoarseDelay)), "Ms/s");
    metrics.add("core.fine_delay.busy_pct", busy(Layer::kFineDelay), "%");
    metrics.add("core.fine_delay.msamples_per_s",
                msamples_per_s(at(Layer::kFineDelay)), "Ms/s");
    metrics.add("core.pipeline.self_pct",
                pct(at(Layer::kPipeline).self_ns, op_ns), "%");
    metrics.add("core.calibration.busy_pct", busy(Layer::kCalibration), "%");
    metrics.add("core.deskew.busy_pct", busy(Layer::kDeskewPlan), "%");
    metrics.add("signal.stream.busy_pct", busy(Layer::kSignalStream), "%");
    metrics.add("measure.jitter.busy_pct", busy(Layer::kMeasureJitter), "%");
    metrics.add("measure.eye.busy_pct", busy(Layer::kMeasureEye), "%");
    metrics.add("measure.histogram.busy_pct", busy(Layer::kMeasureHistogram), "%");
    metrics.add("ate.cdr.busy_pct", busy(Layer::kAteCdr), "%");
    metrics.add("ate.controller.measure_pct", busy(Layer::kAteController), "%");
    metrics.add("campaign.unit_busy_pct",
                pct(at(Layer::kCampaignUnit).busy_ns, threads * op_ns), "%");
    metrics.add("campaign.ckpt_overhead_pct", ckpt_overhead_pct, "%");
    metrics.add("campaign.resume_pct", resume_pct, "%");
    metrics.add("campaign.checkpoint_bytes", static_cast<double>(ckpt_bytes), "count");
    metrics.add("fast.edge_model.fit_pct", 100.0 * w->fit_s() / median(setup_walls),
                "%");
    metrics.add("op.self_pct", pct(at(Layer::kOp).self_ns, op_ns), "%");
    metrics.add("util.thread_pool.cpu_util", cpu_util, "frac");
    metrics.add("signal.stream.samples", static_cast<double>(stream_samples), "count");
    metrics.add("measure.jitter.edges", static_cast<double>(edges), "count");
    metrics.add("campaign.units", static_cast<double>(units), "count");
    metrics.add("trace_overhead_pct", 100.0 * (traced_sum / plain_sum - 1.0), "%");

    MetricList layers;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      if (t[l].spans == 0) continue;
      const std::string name = layer_name(static_cast<Layer>(l));
      layers.add(name + ".busy_s", 1e-9 * static_cast<double>(t[l].busy_ns), "s");
      layers.add(name + ".self_s", 1e-9 * static_cast<double>(t[l].self_ns), "s");
    }
    std::printf("layers %s\n", layers.json().c_str());
    const std::string spans_path = args.workdir + "/spans_" + args.workload + ".csv";
    if (Tracer::instance().write_spans(spans_path))
      std::printf("spans %s (%zu kept, %zu over the cap)\n", spans_path.c_str(),
                  Tracer::instance().recorded(), Tracer::instance().dropped());
  }
  std::printf("report %s\n", report.json().c_str());
  std::printf("digest %016llx%s\n",
              static_cast<unsigned long long>(pass_digest.value()),
              !pinned_applies ? " (no pinned digest for this seed/backend)"
              : pinned_ok     ? " (matches pinned)"
                              : " (PINNED MISMATCH)");

  const bool correct = failed == 0 && metrics.all_finite() && report.all_finite();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed, metrics.json().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadEntry* entry = find_workload(args.workload);
  if (!entry) usage(("unknown workload " + args.workload).c_str());
  try {
    return run(args, entry);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gdelay_perfbench: %s\n", e.what());
    return 1;
  }
}
