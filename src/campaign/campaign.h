// Extreme-statistics campaign orchestration.
//
// A campaign is N independent work units folded into a set of mergeable
// accumulators. The orchestrator shards the unit range over pool threads
// or a serial loop, checkpoints partial accumulators so a killed campaign
// resumes where it stopped, and merges shard states in shard order.
//
// The headline invariant is determinism: the merged result is
// bit-identical for ANY shard count, ANY execution mode, and ANY resume
// point. Three design rules make that hold by construction:
//
//   1. Pure substreams. Unit u draws from Rng(spec.seed).fork(u) — a pure
//      function of (seed, unit), independent of which shard runs u, on
//      which thread, before or after a resume.
//   2. Contiguous shards, ordered merge. Shard s owns a contiguous unit
//      range; merges happen in shard order, so every accumulator sees
//      contributions in the same order as the single-shard run.
//      Floating-point reductions go through RecordAccumulator, which
//      keeps per-unit records and reduces in unit order AFTER the merge.
//   3. Byte-exact state. Checkpoints round-trip through the serde layer
//      (save(load(save(x))) == save(x)), and a resumed shard continues
//      from state indistinguishable from the uninterrupted run.
//
// Checkpoints and merges cost what their bytes cost. A shard's checkpoint
// file is an append-only log: each save appends one frame holding only
// the records added since the previous save, so the bytes a campaign
// writes grow linearly with its length, and a resume replays the frames
// in order. A torn last frame (a campaign killed mid-save) is cut off
// before the shard runs; that loses progress, never correctness, because
// a unit's result is a pure function of (seed, unit). Shard s holds only
// units of its own range (a frame whose records fall outside its
// [from unit, next unit) is rejected when it is loaded), so every merge
// in shard order appends in place. Each record is copied once per hop: a
// save encodes it into the buffer its frame is sealed in and written
// from, a resume decodes it from a view of the file's bytes straight onto
// the end of the accumulator (rolled back when the load fails), and a
// merge sizes each merged accumulator once for all shards' records.
//
// In thread mode each shard is one task on the deterministic pool. Unit
// callbacks must not touch the global thread pool themselves — shards
// already own the parallelism.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace gdelay::util {
class ByteWriter;
class ByteReader;
}  // namespace gdelay::util

namespace gdelay::campaign {

/// How shards execute. The merged result is identical in every mode.
enum class Mode {
  kSerial,  ///< One shard after another on the calling thread.
  kThread,  ///< Shards fanned out on the deterministic thread pool.
};

const char* mode_name(Mode m);

/// Parses "serial" / "thread"; throws std::invalid_argument on anything
/// else.
Mode parse_mode(const std::string& s);

/// Default shard count. A constant, not the pool size: the shard count is
/// part of the checkpoint fingerprint, so a resume must not depend on
/// GDELAY_THREADS.
inline constexpr std::size_t kDefaultShards = 4;

/// Fixed-width per-unit records: unit id + `width` doubles, the campaign's
/// mergeable state. Records stay sorted by unit id (shards process their
/// contiguous ranges in order and merge in shard order, each merge
/// appending in place), so any final floating-point reduction runs in
/// unit order regardless of the shard split — the association-invariance
/// trick behind the campaign determinism contract. save() then load()
/// reproduces the accumulator bit for bit.
class RecordAccumulator {
 public:
  explicit RecordAccumulator(std::size_t width);

  /// Appends unit `u`'s record (`width` doubles). Units must arrive in
  /// increasing order within one accumulator.
  void add(std::uint64_t unit, const double* values);

  std::size_t width() const { return width_; }
  std::size_t size() const { return units_.size(); }
  std::uint64_t unit_at(std::size_t i) const { return units_[i]; }
  const double* values_at(std::size_t i) const {
    return values_.data() + i * width_;
  }

  /// Reserves room for `records` records in all, so adds and merges up
  /// to that count never move the held ones.
  void reserve(std::size_t records);

  /// Writes records [from, size()); the default writes them all.
  void save(util::ByteWriter& w, std::size_t from = 0) const;
  /// The number of bytes save(w, from) writes.
  std::size_t save_size(std::size_t from = 0) const;
  /// Appends the records a save() wrote, decoded onto the ends of this
  /// accumulator's vectors. Throws std::runtime_error on a truncated
  /// piece, on a kind, width or count that does not match, on units that
  /// are not strictly increasing, or when the first loaded unit does not
  /// follow the last held one; the records are then left as they were
  /// (only the capacity may have grown).
  void load(util::ByteReader& r);
  /// Appends `other`'s records, whose first unit must follow this one's
  /// last (std::logic_error otherwise, also for a width mismatch; this
  /// accumulator is left as it was).
  void merge_from(const RecordAccumulator& other);

 private:
  std::size_t width_;
  std::vector<std::uint64_t> units_;
  std::vector<double> values_;  ///< size() * width_, row per unit.
};

using AccumulatorSet = std::vector<std::unique_ptr<RecordAccumulator>>;
/// Creates the (empty) accumulator set for one shard. Must produce the
/// same layout every call — checkpoints load into a fresh factory set.
using AccumulatorFactory = std::function<AccumulatorSet()>;
/// Folds unit `unit`'s work into the shard's accumulators. `rng` is the
/// unit's private substream (pure in (seed, unit)); implementations must
/// not draw randomness from anywhere else.
using UnitFn =
    std::function<void(std::uint64_t unit, util::Rng& rng, AccumulatorSet&)>;

struct CampaignSpec {
  std::string name = "campaign";  ///< Names checkpoint files; fingerprinted.
  std::uint64_t seed = 1;
  std::uint64_t n_units = 0;
  std::size_t n_shards = kDefaultShards;  ///< Must be >= 1; fingerprinted.
  Mode mode = Mode::kThread;
  /// Directory for shard checkpoints; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Units between periodic checkpoints (0 = one save at the end of each
  /// run). Every save appends a frame, so this sets how many frames a
  /// shard's log holds, never the state it resumes to.
  std::uint64_t checkpoint_every = 0;
  /// Cap on units processed PER SHARD in this invocation (0 = no cap).
  /// A capped run checkpoints and reports complete=false — the
  /// deterministic stand-in for "killed mid-campaign" in resume tests.
  std::uint64_t stop_after_units = 0;
};

struct ShardRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  ///< exclusive
};

/// Contiguous, balanced shard ranges covering [0, n_units).
std::vector<ShardRange> plan_shards(std::uint64_t n_units,
                                    std::size_t n_shards);

/// Hash of (name, seed, n_units, n_shards) — stored in every shard
/// checkpoint so state from a different campaign or topology can never
/// resume into this one.
std::uint64_t spec_fingerprint(const CampaignSpec& spec);

struct CampaignResult {
  AccumulatorSet accumulators;  ///< Merged, in factory order.
  std::uint64_t units_done = 0;
  bool complete = false;  ///< false when stop_after_units cut the run short.
  std::size_t n_shards = 0;
  Mode mode = Mode::kSerial;
  bool resumed = false;  ///< Any shard continued from a checkpoint.
};

/// Runs (or resumes) the campaign and merges all shard states.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const AccumulatorFactory& factory,
                            const UnitFn& unit_fn);

/// Path of shard `shard`'s checkpoint file under the spec's dir.
std::string shard_checkpoint_path(const CampaignSpec& spec,
                                  std::size_t shard);

/// Removes all shard checkpoints of a completed campaign.
void remove_checkpoints(const CampaignSpec& spec);

}  // namespace gdelay::campaign
