// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "backend/backend.h"
#include "measure/eye.h"
#include "measure/jitter.h"
#include "signal/synth.h"

// Stamped by the build (bench/CMakeLists.txt) from `git rev-parse`;
// "unknown" outside a git checkout.
#ifndef GDELAY_GIT_REV
#define GDELAY_GIT_REV "unknown"
#endif

namespace gdelay::bench {

// BENCH_*.json schema version. v1 had no version field at all; v2 adds
// "schema" and "git_rev" so perf snapshots are attributable to a commit;
// v3 adds an optional "mem" object (peak RSS + heap accounting, see
// bench/memtrack.h) and moves the files out of the CWD into an output
// directory (default bench/out/, see parse_outdir); v4 adds a "backend"
// object (compute-backend name, ISA level and the dispatch reason) so a
// perf number can never be compared against one measured under a
// different kernel table without noticing; v5 adds an optional
// "campaign" object (shard mode/count, units processed, trials/sec,
// whether the run resumed from a checkpoint) for benches driven by the
// campaign orchestrator. Readers must tolerate all shapes: treat a
// missing "schema" as v1, a missing "mem" as v2-style timing-only data,
// a missing "backend" as the scalar oracle, and a missing "campaign" as
// a single-process in-line run.
inline constexpr int kBenchJsonSchema = 5;

/// The v4 "backend" stamp, read from the dispatcher at call time. Dual-
/// backend harnesses select backends per benchmark run; the stamp then
/// records the table active when the json was written (the per-row
/// names carry the per-run backend).
struct BackendStamp {
  const char* name;
  const char* isa;
  const char* reason;
};

inline BackendStamp backend_stamp() {
  const gdelay::backend::Kernels& k = gdelay::backend::active();
  return {k.name, k.isa, gdelay::backend::dispatch_reason()};
}

/// Where a bench drops its BENCH_*.json. Benches accept
/// `--outdir DIR` / `--outdir=DIR` (default "bench/out", relative to
/// the CWD; gitignored — CI uploads the whole directory as an
/// artifact). The flag is stripped from argv so a downstream
/// benchmark::Initialize never sees it; the directory is created on the
/// spot.
inline std::string parse_outdir(int* argc, char** argv) {
  std::string dir = "bench/out";
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string a = argv[i];
    if (a == "--outdir" && i + 1 < *argc) {
      dir = argv[++i];
      continue;
    }
    if (a.rfind("--outdir=", 0) == 0) {
      dir = a.substr(9);
      continue;
    }
    argv[w++] = argv[i];
  }
  argv[w] = nullptr;
  *argc = w;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// Peak resident-set size of the process so far, in bytes (0 where
/// getrusage is unavailable). Monotone over the process lifetime: a
/// bench comparing phases must run the lean phase first, or use the
/// resettable heap counters in bench/memtrack.h.
inline std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// The v5 "campaign" stamp: shard topology and throughput of an
/// orchestrated run. `mode` is campaign::mode_name() of the mode that
/// ran, serial or thread.
struct CampaignStamp {
  const char* mode = "serial";
  std::size_t shards = 1;
  std::size_t units = 0;
  double trials_per_sec = 0.0;
  bool resumed = false;
};

/// Hand-rolled BENCH_<name>.json for the figure benches: the schema-5
/// envelope (version, git rev, backend stamp, optional campaign stamp,
/// peak RSS) around a flat list of headline scalars — the numbers a
/// perf/accuracy dashboard tracks per figure. Non-harness counterpart
/// of write_gbench_json.
inline void write_figure_json(
    const std::string& outdir, const char* bench_name,
    const std::vector<std::pair<std::string, double>>& scalars,
    const CampaignStamp* campaign = nullptr) {
  const std::string path = outdir + "/BENCH_" + bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return;
  }
  const BackendStamp bs = backend_stamp();
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"schema\": %d,\n"
               "  \"git_rev\": \"%s\",\n"
               "  \"backend\": {\"name\": \"%s\", \"isa\": \"%s\", "
               "\"reason\": \"%s\"}",
               bench_name, kBenchJsonSchema, GDELAY_GIT_REV, bs.name, bs.isa,
               bs.reason);
  if (campaign) {
    std::fprintf(f,
                 ",\n  \"campaign\": {\"mode\": \"%s\", \"shards\": %zu, "
                 "\"units\": %zu, \"trials_per_sec\": %.6g, "
                 "\"resumed\": %s}",
                 campaign->mode, campaign->shards, campaign->units,
                 campaign->trials_per_sec,
                 campaign->resumed ? "true" : "false");
  }
  for (const auto& [key, value] : scalars)
    std::fprintf(f, ",\n  \"%s\": %.6g", key.c_str(), value);
  std::fprintf(f, ",\n  \"mem\": {\"peak_rss_bytes\": %zu}\n}\n",
               peak_rss_bytes());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

inline void banner(const char* title, const char* paper_ref) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title);
  std::printf("paper reference: %s\n", paper_ref);
  std::printf("============================================================\n");
}

inline void section(const char* name) {
  std::printf("\n--- %s ---\n", name);
}

/// Prints an already-accumulated eye (the streaming benches fold their
/// eyes incrementally through meas::EyeSink).
inline void print_eye(const meas::EyeDiagram& eye, const char* label) {
  std::printf("%s (2 UI x [-550,550] mV):\n%s", label, eye.ascii().c_str());
}

/// Renders a waveform as an ASCII eye diagram (2 UI wide).
inline void print_eye(const sig::Waveform& wf, double ui_ps,
                      const char* label, double settle_ps = 12000.0) {
  meas::EyeDiagram eye(ui_ps, -0.55, 0.55, 72, 18);
  eye.accumulate(wf, 0.0, settle_ps);
  print_eye(eye, label);
}

/// The benches' standard eye raster (2 UI x [-550, 550] mV, 72x18).
inline meas::EyeDiagram bench_eye(double ui_ps) {
  return meas::EyeDiagram(ui_ps, -0.55, 0.55, 72, 18);
}

/// Quick row formatter for paper-vs-measured tables.
inline void row(const char* name, double paper, double measured,
                const char* unit) {
  std::printf("  %-34s %9.2f %9.2f  %s\n", name, paper, measured, unit);
}

inline void row_header() {
  std::printf("  %-34s %9s %9s\n", "quantity", "paper", "ours");
}

/// Jitter options that skip the stages' bias-droop settling transient.
inline meas::CrossingOptions settled_jitter() {
  meas::CrossingOptions jo;
  jo.settle_ps = 12000.0;
  return jo;
}

}  // namespace gdelay::bench
