#include "campaign/campaign.h"

#include <filesystem>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "campaign/checkpoint.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace gdelay::campaign {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kSerial:
      return "serial";
    case Mode::kThread:
      return "thread";
  }
  return "?";
}

Mode parse_mode(const std::string& s) {
  if (s == "serial") return Mode::kSerial;
  if (s == "thread") return Mode::kThread;
  throw std::invalid_argument("campaign: unknown mode '" + s +
                              "' (serial|thread)");
}

// ---------------------------------------------------------------------------
// Accumulators
// ---------------------------------------------------------------------------

namespace {
// RecordAccumulator payload tag.
constexpr std::uint32_t kKindRecords = 0x52454331u;  // "REC1"
}  // namespace

RecordAccumulator::RecordAccumulator(std::size_t width) : width_(width) {
  if (width == 0)
    throw std::invalid_argument("RecordAccumulator: width must be >= 1");
}

void RecordAccumulator::add(std::uint64_t unit, const double* values) {
  if (!units_.empty() && unit <= units_.back())
    throw std::logic_error("RecordAccumulator: units must arrive in order");
  units_.push_back(unit);
  values_.insert(values_.end(), values, values + width_);
}

void RecordAccumulator::reserve(std::size_t records) {
  units_.reserve(records);
  values_.reserve(records * width_);
}

void RecordAccumulator::save(util::ByteWriter& w, std::size_t from) const {
  if (from > units_.size())
    throw std::out_of_range("RecordAccumulator: save from past the end");
  w.u32(kKindRecords);
  w.u64(width_);
  w.vec_u64(std::span(units_).subspan(from));
  w.vec_f64(std::span(values_).subspan(from * width_));
}

std::size_t RecordAccumulator::save_size(std::size_t from) const {
  if (from > units_.size())
    throw std::out_of_range("RecordAccumulator: save from past the end");
  // u32 kind, u64 width, then each vector's u64 count and 8-byte elements.
  return 4 + 8 + 8 + 8 + (units_.size() - from) * (8 + 8 * width_);
}

void RecordAccumulator::load(util::ByteReader& r) {
  if (r.u32() != kKindRecords)
    throw std::runtime_error("RecordAccumulator: checkpoint kind mismatch");
  const std::uint64_t width = r.u64();
  const std::size_t held = units_.size();
  // Decoded straight onto the ends of both vectors, then checked; any
  // failure shrinks them back to the held records.
  try {
    r.append_vec_u64(units_);
    r.append_vec_f64(values_);
    const std::size_t n = units_.size() - held;
    if (width != width_ || values_.size() - held * width_ != n * width_)
      throw std::runtime_error("RecordAccumulator: corrupt checkpoint payload");
    for (std::size_t i = held + 1; i < units_.size(); ++i)
      if (units_[i] <= units_[i - 1])
        throw std::runtime_error(
            "RecordAccumulator: corrupt checkpoint payload");
    if (held > 0 && n > 0 && units_[held] <= units_[held - 1])
      throw std::runtime_error(
          "RecordAccumulator: loaded units must follow the held ones");
  } catch (...) {
    units_.resize(held);
    values_.resize(held * width_);
    throw;
  }
}

void RecordAccumulator::merge_from(const RecordAccumulator& other) {
  if (other.width_ != width_)
    throw std::logic_error("RecordAccumulator: merge width mismatch");
  if (other.units_.empty()) return;
  // Shard s holds only units of its own range and merges in shard order,
  // so the other side's units follow ours: append in place.
  if (!units_.empty() && other.units_.front() <= units_.back())
    throw std::logic_error("RecordAccumulator: merged units must follow");
  units_.insert(units_.end(), other.units_.begin(), other.units_.end());
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

// ---------------------------------------------------------------------------
// Shard planning and checkpoint logs
// ---------------------------------------------------------------------------

std::vector<ShardRange> plan_shards(std::uint64_t n_units,
                                    std::size_t n_shards) {
  if (n_shards == 0)
    throw std::invalid_argument("plan_shards: need >= 1 shard");
  // begin(s) = floor(n * s / S), computed as q*s + r*s/S with n = q*S + r
  // so that no product wraps at 2^64 (r*s < S^2).
  const std::uint64_t q = n_units / n_shards, r = n_units % n_shards;
  const auto begin = [&](std::uint64_t s) { return q * s + r * s / n_shards; };
  std::vector<ShardRange> ranges(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    ranges[s].begin = begin(s);
    ranges[s].end = begin(s + 1);
  }
  return ranges;
}

std::uint64_t spec_fingerprint(const CampaignSpec& spec) {
  util::ByteWriter w;
  w.raw(spec.name.data(), spec.name.size());
  w.u64(spec.seed);
  w.u64(spec.n_units);
  w.u64(spec.n_shards);
  return util::fnv1a64(w.bytes().data(), w.bytes().size());
}

std::string shard_checkpoint_path(const CampaignSpec& spec,
                                  std::size_t shard) {
  return spec.checkpoint_dir + "/" + spec.name + ".shard" +
         std::to_string(shard) + ".ckpt";
}

namespace {

struct ShardOutcome {
  AccumulatorSet accs;
  std::uint64_t next_unit = 0;
  bool resumed = false;
  bool complete = false;
};

// Payload of one frame of a shard's log, the records of units
// [from_unit, next_unit):
//   u64 fingerprint  u32 shard  u64 from_unit  u64 next_unit  u32 n_accs
//   per accumulator in factory order, its records added since the last
//   save (RecordAccumulator::save from its saved count)
//
// Replays every whole frame of `log` into `out` and returns their byte
// length; the bytes after it are a torn tail. A whole frame must follow
// the previous one (its from_unit is the previous next_unit, range.begin
// for the first), so a dropped, duplicated or reordered frame throws, as
// does any frame that fails a check: its state must never resume.
std::size_t replay_log(std::uint64_t fingerprint, std::size_t shard,
                       const ShardRange& range, std::string_view log,
                       ShardOutcome& out) {
  std::size_t at = 0;
  for (std::size_t n; (n = whole_frame_size(log.substr(at))) > 0; at += n) {
    const std::string_view payload =
        unframe(log.substr(at, n), kFrameShardState);
    util::ByteReader r(payload);
    if (r.u64() != fingerprint)
      throw std::runtime_error(
          "campaign: checkpoint belongs to a different spec/topology");
    if (r.u32() != static_cast<std::uint32_t>(shard))
      throw std::runtime_error("campaign: checkpoint shard index mismatch");
    const std::uint64_t from_unit = r.u64();
    const std::uint64_t next_unit = r.u64();
    if (from_unit != out.next_unit)
      throw std::runtime_error("campaign: checkpoint frame out of sequence");
    if (next_unit < from_unit || next_unit > range.end)
      throw std::runtime_error("campaign: checkpoint outside shard range");
    if (r.u32() != out.accs.size())
      throw std::runtime_error("campaign: checkpoint accumulator count mismatch");
    for (auto& acc : out.accs) {
      const std::size_t held = acc->size();
      acc->load(r);
      if (acc->size() > held && (acc->unit_at(held) < from_unit ||
                                 acc->unit_at(acc->size() - 1) >= next_unit))
        throw std::runtime_error(
            "campaign: checkpoint records outside [from_unit, next_unit)");
    }
    if (!r.at_end())
      throw std::runtime_error("campaign: trailing bytes in checkpoint payload");
    out.next_unit = next_unit;
    out.resumed = true;
  }
  return at;
}

// ---------------------------------------------------------------------------
// Shard execution
// ---------------------------------------------------------------------------

ShardOutcome run_shard(const CampaignSpec& spec, std::size_t shard,
                       const ShardRange& range,
                       const AccumulatorFactory& factory,
                       const UnitFn& unit_fn) {
  const bool checkpointing = !spec.checkpoint_dir.empty();
  const std::string path =
      checkpointing ? shard_checkpoint_path(spec, shard) : std::string();
  const std::uint64_t fingerprint = spec_fingerprint(spec);
  ShardOutcome out;
  out.accs = factory();
  out.next_unit = range.begin;
  if (checkpointing) {
    if (auto log = read_file(path)) {
      // Cut a torn tail, so the next save appends on a frame boundary.
      const std::size_t whole =
          replay_log(fingerprint, shard, range, *log, out);
      if (whole < log->size()) std::filesystem::resize_file(path, whole);
    }
  }

  // Units [.., saved_unit) and each accumulator's first saved[a] records
  // are on disk; a save appends the rest as one frame.
  std::uint64_t saved_unit = out.next_unit;
  std::vector<std::size_t> saved(out.accs.size());
  for (std::size_t a = 0; a < out.accs.size(); ++a)
    saved[a] = out.accs[a]->size();
  const auto save_checkpoint = [&] {
    // The frame is built in the buffer the payload is encoded into,
    // reserved once for the whole frame, and written from it.
    std::size_t payload_bytes = 8 + 4 + 8 + 8 + 4;
    for (std::size_t a = 0; a < out.accs.size(); ++a)
      payload_bytes += out.accs[a]->save_size(saved[a]);
    util::ByteWriter w;
    begin_frame(w, kFrameShardState, payload_bytes);
    w.u64(fingerprint);
    w.u32(static_cast<std::uint32_t>(shard));
    w.u64(saved_unit);
    w.u64(out.next_unit);
    w.u32(static_cast<std::uint32_t>(out.accs.size()));
    for (std::size_t a = 0; a < out.accs.size(); ++a)
      out.accs[a]->save(w, saved[a]);
    append_file(path, seal_frame(w));
    saved_unit = out.next_unit;
    for (std::size_t a = 0; a < out.accs.size(); ++a)
      saved[a] = out.accs[a]->size();
  };

  const util::Rng root(spec.seed);
  std::uint64_t done_this_run = 0;
  while (out.next_unit < range.end) {
    if (spec.stop_after_units && done_this_run >= spec.stop_after_units)
      break;
    // The unit's private substream: a pure function of (seed, unit), so
    // results cannot depend on the shard/thread/resume topology. Each
    // unit forks a copy of the root, whose state is Rng(seed)'s.
    util::Rng rng = util::Rng(root).fork(out.next_unit);
    unit_fn(out.next_unit, rng, out.accs);
    ++out.next_unit;
    ++done_this_run;
    if (checkpointing && spec.checkpoint_every &&
        out.next_unit - saved_unit >= spec.checkpoint_every)
      save_checkpoint();
  }
  // Only units run since the last save make a frame: a stop on a periodic
  // save, or a rerun of a complete shard, appends nothing.
  if (checkpointing && out.next_unit != saved_unit) save_checkpoint();
  out.complete = out.next_unit >= range.end;
  return out;
}

CampaignResult merge_outcomes(const CampaignSpec& spec,
                              const std::vector<ShardRange>& ranges,
                              std::vector<ShardOutcome> outcomes) {
  CampaignResult res;
  res.n_shards = spec.n_shards;
  res.mode = spec.mode;
  res.complete = true;
  // Shard 0's accumulators receive the others' records: each is sized
  // once for all of them, so the appends below never regrow it.
  for (std::size_t a = 0; a < outcomes[0].accs.size(); ++a) {
    std::size_t records = 0;
    for (const ShardOutcome& o : outcomes) records += o.accs[a]->size();
    outcomes[0].accs[a]->reserve(records);
  }
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    res.units_done += outcomes[s].next_unit - ranges[s].begin;
    res.resumed = res.resumed || outcomes[s].resumed;
    res.complete = res.complete && outcomes[s].complete;
    if (s == 0) {
      res.accumulators = std::move(outcomes[s].accs);
    } else {
      for (std::size_t a = 0; a < res.accumulators.size(); ++a)
        res.accumulators[a]->merge_from(*outcomes[s].accs[a]);
    }
  }
  return res;
}

}  // namespace

// ---------------------------------------------------------------------------
// Campaign entry points
// ---------------------------------------------------------------------------

CampaignResult run_campaign(const CampaignSpec& spec,
                            const AccumulatorFactory& factory,
                            const UnitFn& unit_fn) {
  const std::vector<ShardRange> ranges =
      plan_shards(spec.n_units, spec.n_shards);

  std::vector<ShardOutcome> outcomes;
  switch (spec.mode) {
    case Mode::kSerial:
      outcomes.reserve(spec.n_shards);
      for (std::size_t s = 0; s < spec.n_shards; ++s)
        outcomes.push_back(run_shard(spec, s, ranges[s], factory, unit_fn));
      break;
    case Mode::kThread:
      outcomes = util::parallel_map(spec.n_shards, [&](std::size_t s) {
        return run_shard(spec, s, ranges[s], factory, unit_fn);
      });
      break;
  }
  return merge_outcomes(spec, ranges, std::move(outcomes));
}

void remove_checkpoints(const CampaignSpec& spec) {
  if (spec.checkpoint_dir.empty()) return;
  for (std::size_t s = 0; s < spec.n_shards; ++s)
    remove_file(shard_checkpoint_path(spec, s));
}

}  // namespace gdelay::campaign
