#include "campaign/campaign.h"

#include <stdexcept>
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

void RecordAccumulator::save(util::ByteWriter& w) const {
  w.u32(kKindRecords);
  w.u64(width_);
  w.vec_u64(units_);
  w.vec_f64(values_);
}

void RecordAccumulator::load(util::ByteReader& r) {
  if (r.u32() != kKindRecords)
    throw std::runtime_error("RecordAccumulator: checkpoint kind mismatch");
  const auto width = static_cast<std::size_t>(r.u64());
  std::vector<std::uint64_t> units = r.vec_u64();
  std::vector<double> values = r.vec_f64();
  if (width != width_ || values.size() != units.size() * width)
    throw std::runtime_error("RecordAccumulator: corrupt checkpoint payload");
  for (std::size_t i = 1; i < units.size(); ++i)
    if (units[i] <= units[i - 1])
      throw std::runtime_error("RecordAccumulator: corrupt checkpoint payload");
  units_ = std::move(units);
  values_ = std::move(values);
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
// Shard planning and state serialization
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

// Checkpoint payload:
//   u64 fingerprint  u32 shard  u64 next_unit  u8 resumed  u8 complete
//   u32 n_accs  accumulator payloads in factory order
std::string serialize_outcome(const CampaignSpec& spec, std::size_t shard,
                              const ShardOutcome& out) {
  util::ByteWriter w;
  w.u64(spec_fingerprint(spec));
  w.u32(static_cast<std::uint32_t>(shard));
  w.u64(out.next_unit);
  w.u8(out.resumed ? 1 : 0);
  w.u8(out.complete ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(out.accs.size()));
  for (const auto& acc : out.accs) acc->save(w);
  return w.take();
}

// A state that passes every check resumes: its records lie in
// [range.begin, next_unit), so the shard's later units follow them and
// its merge into the earlier shards appends.
ShardOutcome deserialize_outcome(const CampaignSpec& spec, std::size_t shard,
                                 const ShardRange& range,
                                 const AccumulatorFactory& factory,
                                 const std::string& payload) {
  util::ByteReader r(payload);
  if (r.u64() != spec_fingerprint(spec))
    throw std::runtime_error(
        "campaign: checkpoint belongs to a different spec/topology");
  if (r.u32() != static_cast<std::uint32_t>(shard))
    throw std::runtime_error("campaign: checkpoint shard index mismatch");
  ShardOutcome out;
  out.next_unit = r.u64();
  out.resumed = r.u8() != 0;
  out.complete = r.u8() != 0;
  const std::uint32_t n_accs = r.u32();
  out.accs = factory();
  if (n_accs != out.accs.size())
    throw std::runtime_error("campaign: checkpoint accumulator count mismatch");
  for (auto& acc : out.accs) acc->load(r);
  if (!r.at_end())
    throw std::runtime_error("campaign: trailing bytes in checkpoint payload");
  if (out.next_unit < range.begin || out.next_unit > range.end)
    throw std::runtime_error("campaign: checkpoint outside shard range");
  for (const auto& acc : out.accs)
    if (acc->size() > 0 && (acc->unit_at(0) < range.begin ||
                            acc->unit_at(acc->size() - 1) >= out.next_unit))
      throw std::runtime_error(
          "campaign: checkpoint records outside [begin, next_unit)");
  return out;
}

// ---------------------------------------------------------------------------
// Shard execution
// ---------------------------------------------------------------------------

ShardOutcome run_shard(const CampaignSpec& spec, std::size_t shard,
                       const ShardRange& range,
                       const AccumulatorFactory& factory,
                       const UnitFn& unit_fn) {
  const bool checkpointing = !spec.checkpoint_dir.empty();
  ShardOutcome out;
  out.accs = factory();
  out.next_unit = range.begin;
  if (checkpointing) {
    if (auto bytes = read_file(shard_checkpoint_path(spec, shard))) {
      out = deserialize_outcome(spec, shard, range, factory,
                                unframe(*bytes, kFrameShardState));
      out.resumed = true;
    }
  }

  const auto save_checkpoint = [&] {
    out.complete = out.next_unit >= range.end;
    write_file_atomic(
        shard_checkpoint_path(spec, shard),
        frame(kFrameShardState, serialize_outcome(spec, shard, out)));
  };

  std::uint64_t done_this_run = 0;
  std::uint64_t since_ckpt = 0;
  // The loop's last action was a periodic save, so the file on disk
  // already holds the final state. A resumed shard that runs no unit
  // still re-writes its file: its `resumed` byte differs.
  bool saved = false;
  while (out.next_unit < range.end) {
    if (spec.stop_after_units && done_this_run >= spec.stop_after_units)
      break;
    // The unit's private substream: a pure function of (seed, unit), so
    // results cannot depend on the shard/thread/resume topology.
    util::Rng rng = util::Rng(spec.seed).fork(out.next_unit);
    unit_fn(out.next_unit, rng, out.accs);
    ++out.next_unit;
    ++done_this_run;
    saved = false;
    if (checkpointing && spec.checkpoint_every &&
        ++since_ckpt >= spec.checkpoint_every) {
      save_checkpoint();
      since_ckpt = 0;
      saved = true;
    }
  }
  out.complete = out.next_unit >= range.end;
  if (checkpointing && !saved) save_checkpoint();
  return out;
}

CampaignResult merge_outcomes(const CampaignSpec& spec,
                              const std::vector<ShardRange>& ranges,
                              std::vector<ShardOutcome> outcomes) {
  CampaignResult res;
  res.n_shards = spec.n_shards;
  res.mode = spec.mode;
  res.complete = true;
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
