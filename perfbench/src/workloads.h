// The benchmark's workloads. Each builds its inputs from a seed (the
// constructor is the timed set-up) and then runs a fixed list of ops per
// pass; the harness repeats passes for the run's duration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/serde.h"

namespace perfbench {

/// Seed whose outputs are pinned (see pinned digests in workloads.cpp).
inline constexpr std::uint64_t kDefaultSeed = 2008;

/// FNV-1a digest of an op's outputs, chained piece by piece over their
/// in-memory bytes (so pinned values hold on little-endian hosts).
class Digest {
 public:
  void bytes(const void* p, std::size_t n) { h_ = gdelay::util::fnv1a64(p, n, h_); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void f64s(const std::vector<double>& v) {
    u64(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(double));
  }
  void ints(const std::vector<int>& v) {
    u64(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(int));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Generator for stream `stream` of a seed: a pure function of both, so
/// an op draws the same numbers in any pass, on any thread.
inline gdelay::util::Rng stream_rng(std::uint64_t seed, std::uint64_t stream) {
  return gdelay::util::Rng(seed).fork(stream);
}

struct OpOutcome {
  std::uint64_t digest = 0;
  bool ok = false;   ///< The op's physical checks passed.
  std::string why;   ///< First failed check, when !ok.
  /// Stimulus samples x streams driven through the device (0 where the
  /// benchmark cannot count them itself).
  std::uint64_t samples = 0;
  std::uint64_t stream_samples = 0;  ///< Samples read from streaming sources.
  std::uint64_t edges = 0;           ///< Edges folded into jitter sinks.
  std::uint64_t units = 0;           ///< Campaign units merged.
  /// This op's reading of the workload's paper figure (NaN: none).
  double figure = std::numeric_limits<double>::quiet_NaN();
  // Campaign phases (mc_campaign only).
  double plain_s = 0.0;   ///< The plain campaign call.
  double ckpt_s = 0.0;    ///< Checkpointed call cut short + resume call.
  double resume_s = 0.0;  ///< The resume call alone.
  std::uint64_t checkpoint_bytes = 0;  ///< Shard checkpoints at the stop.
};

/// Times one op, in wall time and in CPU time. It starts on construction;
/// the workload calls stop() when the op's work is done, so the
/// benchmark's own output checks after it are not timed. The CPU time is
/// the whole process's when `whole_process` (an op that runs alone and may
/// fan out over the pool), else the calling thread's (one of several ops
/// running side by side, each on its own thread). A traced clock also
/// holds the op's root span.
class OpClock {
 public:
  OpClock(bool traced, std::uint64_t op_id, bool whole_process = false);
  ~OpClock() { stop(); }
  OpClock(const OpClock&) = delete;
  OpClock& operator=(const OpClock&) = delete;

  /// True when the op must take its instrumented path.
  bool traced() const { return traced_; }
  /// Ends the timed part (idempotent). No span may be open inside the op.
  void stop();
  double seconds() const;
  /// CPU seconds of the timed part (valid after stop()).
  double cpu_seconds() const;

 private:
  bool traced_;
  bool whole_process_;
  bool running_ = true;
  std::int64_t start_ns_;
  std::int64_t end_ns_ = 0;
  std::int64_t cpu_start_ns_;
  std::int64_t cpu_end_ns_ = 0;
};

struct WorkloadOptions {
  int threads = 1;
  std::string workdir;  ///< Scratch directory for checkpoint files.
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t ops_per_pass() const = 0;
  /// True when a pass's ops are independent and run side by side on the
  /// thread pool; false when every op already fans out over the pool.
  virtual bool concurrent_ops() const = 0;
  /// Runs op `i` of a pass. A traced clock selects the instrumented path,
  /// whose outputs (and so digest) must equal the plain path's.
  virtual OpOutcome run_op(std::size_t i, OpClock& clock) = 0;
  /// The paper's value for the figure the workload reproduces.
  virtual double paper_value() const = 0;
  /// Seconds of the set-up spent fitting the edge model.
  virtual double fit_s() const { return 0.0; }
};

using WorkloadFactory = std::unique_ptr<Workload> (*)(std::uint64_t seed,
                                                      const WorkloadOptions&);

struct WorkloadEntry {
  const char* name;
  WorkloadFactory make;
  /// Digest of the first pass at kDefaultSeed on the scalar backend.
  std::uint64_t pinned_digest;
};

const std::vector<WorkloadEntry>& workloads();
const WorkloadEntry* find_workload(const std::string& name);

std::unique_ptr<Workload> make_inject_sweep(std::uint64_t seed,
                                            const WorkloadOptions& opt);
std::unique_ptr<Workload> make_deskew(std::uint64_t seed,
                                      const WorkloadOptions& opt);
std::unique_ptr<Workload> make_eye_stream(std::uint64_t seed,
                                          const WorkloadOptions& opt);
std::unique_ptr<Workload> make_mc_campaign(std::uint64_t seed,
                                           const WorkloadOptions& opt);

}  // namespace perfbench
