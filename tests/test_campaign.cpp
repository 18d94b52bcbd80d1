// Campaign orchestration: sharding, per-unit substreams, checkpoints,
// merges. The headline contract under test is determinism — the merged
// result is bit-identical for ANY shard count, ANY execution mode
// (serial / thread) and ANY resume point — plus the guard rails around
// it: each save appends one frame to its shard's log, a torn last frame
// is cut off and the shard resumes from the frame before it, checkpoints
// from a different spec or topology, corrupt checkpoint files, swapped
// shard files and frames out of sequence are rejected, the frame layer
// refuses truncated, bit-flipped or word-swapped bytes and frames of
// older versions outright, seeded mutants of a real payload or of a
// stopped campaign's logs either throw std::runtime_error or round-trip
// (resume), and RecordAccumulator merges only append, so floating-point
// reductions stay in unit order by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "util/rng.h"
#include "util/serde.h"

namespace gcp = gdelay::campaign;
using gdelay::util::ByteReader;
using gdelay::util::ByteWriter;
using gdelay::util::fnv1a64;
using gdelay::util::Rng;

namespace {

constexpr std::uint64_t kUnits = 40;

// Small workload with two accumulators of different widths per shard, so
// the merge runs over a multi-state set in factory order and a checkpoint
// carries both payloads back to back.
gcp::AccumulatorSet make_accs() {
  gcp::AccumulatorSet accs;
  accs.push_back(std::make_unique<gcp::RecordAccumulator>(2));
  accs.push_back(std::make_unique<gcp::RecordAccumulator>(3));
  return accs;
}

void unit_work(std::uint64_t unit, Rng& rng, gcp::AccumulatorSet& accs) {
  gcp::RecordAccumulator& summary = *accs[0];
  gcp::RecordAccumulator& extremes = *accs[1];
  double samples[16];
  double sum = 0.0, peak = 0.0, trough = 0.0;
  for (double& s : samples) {
    s = rng.gaussian();
    sum += s;
    if (s > peak) peak = s;
    if (s < trough) trough = s;
  }
  const double row[2] = {sum / 16.0, peak};
  summary.add(unit, row);
  const double ext[3] = {samples[0], trough, peak};
  extremes.add(unit, ext);
}

// `payload` in a shard-state frame, built through the library's
// begin/seal calls, as a save builds one.
std::string frame_of(std::string_view payload) {
  ByteWriter w;
  gcp::begin_frame(w, gcp::kFrameShardState, payload.size());
  w.raw(payload.data(), payload.size());
  return gcp::seal_frame(w);
}

std::uint64_t hash_accs(const gcp::AccumulatorSet& accs) {
  ByteWriter w;
  for (const auto& a : accs) a->save(w);
  return fnv1a64(w.bytes().data(), w.size());
}

gcp::CampaignSpec base_spec(std::size_t shards, gcp::Mode mode) {
  gcp::CampaignSpec spec;
  spec.name = "unit_test";
  spec.seed = 77;
  spec.n_units = kUnits;
  spec.n_shards = shards;
  spec.mode = mode;
  return spec;
}

std::uint64_t run_hash(std::size_t shards, gcp::Mode mode) {
  const gcp::CampaignResult r =
      gcp::run_campaign(base_spec(shards, mode), make_accs, unit_work);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.units_done, kUnits);
  return hash_accs(r.accumulators);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shard planning and fingerprints
// ---------------------------------------------------------------------------

TEST(CampaignPlan, ShardsAreContiguousBalancedAndCovering) {
  for (std::uint64_t n : {0ull, 1ull, 3ull, 10ull, 1000ull}) {
    for (std::size_t shards : {std::size_t{1}, std::size_t{3},
                               std::size_t{4}, std::size_t{8}}) {
      const auto ranges = gcp::plan_shards(n, shards);
      ASSERT_EQ(ranges.size(), shards);
      EXPECT_EQ(ranges.front().begin, 0u);
      EXPECT_EQ(ranges.back().end, n);
      std::uint64_t lo = n, hi = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        ASSERT_LE(ranges[s].begin, ranges[s].end);
        if (s) {
          EXPECT_EQ(ranges[s].begin, ranges[s - 1].end);
        }
        const std::uint64_t len = ranges[s].end - ranges[s].begin;
        lo = std::min(lo, len);
        hi = std::max(hi, len);
      }
      EXPECT_LE(hi - lo, 1u) << n << " units over " << shards;
    }
  }
}

TEST(CampaignPlan, ShardsCoverUnitCountsNearTwoToThe64) {
  // n * (s + 1) wraps at 2^64 for these; the ranges must still start at
  // 0, be contiguous, end at n and differ in size by at most 1.
  const struct {
    std::uint64_t n;
    std::size_t shards;
  } big[] = {{6000000000000000000ull, 4},
             {~0ull, 3},
             {(std::uint64_t{1} << 63) + 5, 7}};
  for (const auto& c : big) {
    const auto ranges = gcp::plan_shards(c.n, c.shards);
    ASSERT_EQ(ranges.size(), c.shards);
    EXPECT_EQ(ranges.front().begin, 0u);
    EXPECT_EQ(ranges.back().end, c.n);
    std::uint64_t lo = ~0ull, hi = 0;
    for (std::size_t s = 0; s < c.shards; ++s) {
      ASSERT_LE(ranges[s].begin, ranges[s].end) << c.n << " shard " << s;
      if (s) {
        EXPECT_EQ(ranges[s].begin, ranges[s - 1].end);
      }
      const std::uint64_t len = ranges[s].end - ranges[s].begin;
      lo = std::min(lo, len);
      hi = std::max(hi, len);
    }
    EXPECT_LE(hi - lo, 1u) << c.n << " units over " << c.shards;
  }
  // Wherever n * S fits, the plan is floor(n * s / S) as before, so
  // existing checkpoints and hashes keep their shard ranges.
  for (std::uint64_t n = 0; n <= 1000; ++n) {
    for (std::size_t shards = 1; shards <= 16; ++shards) {
      const auto ranges = gcp::plan_shards(n, shards);
      for (std::size_t s = 0; s < shards; ++s) {
        ASSERT_EQ(ranges[s].begin, n * s / shards) << n << "/" << shards;
        ASSERT_EQ(ranges[s].end, n * (s + 1) / shards) << n << "/" << shards;
      }
    }
  }
}

TEST(CampaignPlan, FingerprintSeparatesSpecAndTopology) {
  const gcp::CampaignSpec a = base_spec(4, gcp::Mode::kSerial);
  const std::uint64_t fp = gcp::spec_fingerprint(a);
  EXPECT_EQ(fp, gcp::spec_fingerprint(a));  // stable

  gcp::CampaignSpec b = a;
  b.name = "other_campaign";
  EXPECT_NE(gcp::spec_fingerprint(b), fp);
  b = a;
  b.seed = 78;
  EXPECT_NE(gcp::spec_fingerprint(b), fp);
  b = a;
  b.n_units = kUnits + 1;
  EXPECT_NE(gcp::spec_fingerprint(b), fp);
  b = a;
  b.n_shards = 8;  // topology
  EXPECT_NE(gcp::spec_fingerprint(b), fp);
  b = a;
  b.mode = gcp::Mode::kThread;  // execution only: same checkpoints
  EXPECT_EQ(gcp::spec_fingerprint(b), fp);
}

TEST(CampaignConfig, ModeNamesRoundTrip) {
  for (gcp::Mode m : {gcp::Mode::kSerial, gcp::Mode::kThread})
    EXPECT_EQ(gcp::parse_mode(gcp::mode_name(m)), m);
  EXPECT_THROW(gcp::parse_mode("sideways"), std::invalid_argument);
  EXPECT_THROW(gcp::parse_mode("fork"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RecordAccumulator: the association-invariance workhorse
// ---------------------------------------------------------------------------

TEST(RecordAccumulator, InterleavedMergeThrows) {
  // A merge only appends: interleaved units would break the unit order
  // the final reductions rely on, so they throw and change nothing.
  gcp::RecordAccumulator a(1), b(1);
  for (std::uint64_t u : {0ull, 2ull, 4ull}) {
    const double v = 10.0 + static_cast<double>(u);
    a.add(u, &v);
  }
  for (std::uint64_t u : {1ull, 3ull}) {
    const double v = 10.0 + static_cast<double>(u);
    b.add(u, &v);
  }
  EXPECT_THROW(a.merge_from(b), std::logic_error);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.unit_at(2), 4u);
  EXPECT_THROW(a.merge_from(gcp::RecordAccumulator(2)), std::logic_error);
}

TEST(RecordAccumulator, SaveLoadSaveIsIdentity) {
  gcp::RecordAccumulator a(3);
  Rng rng(9);
  for (std::uint64_t u = 0; u < 17; ++u) {
    const double row[3] = {rng.gaussian(), rng.uniform(), -1.0};
    a.add(u, row);
  }
  ByteWriter w1;
  a.save(w1);

  gcp::RecordAccumulator b(3);
  ByteReader r(w1.bytes());
  b.load(r);
  EXPECT_EQ(b.size(), a.size());
  ByteWriter w2;
  b.save(w2);
  EXPECT_EQ(w2.bytes(), w1.bytes());
}

namespace {

// One width-2 record per unit in [begin, end), its values a function of
// the unit.
gcp::RecordAccumulator records(std::uint64_t begin, std::uint64_t end) {
  gcp::RecordAccumulator acc(2);
  for (std::uint64_t u = begin; u < end; ++u) {
    const double row[2] = {0.5 * static_cast<double>(u),
                           -static_cast<double>(u * u)};
    acc.add(u, row);
  }
  return acc;
}

std::string saved(const gcp::RecordAccumulator& acc) {
  ByteWriter w;
  acc.save(w);
  return w.take();
}

}  // namespace

TEST(RecordAccumulator, InPlaceMergeOfOrderedShardsMatchesOneAccumulator) {
  const std::string whole = saved(records(0, 30));
  // Contiguous shards in shard order, merged into an empty accumulator,
  // with empty shards between and after them: every merge appends.
  gcp::RecordAccumulator merged(2);
  const std::uint64_t cuts[][2] = {{0, 10}, {10, 10}, {10, 25}, {25, 30},
                                   {30, 30}};
  for (const auto& c : cuts) merged.merge_from(records(c[0], c[1]));
  EXPECT_EQ(saved(merged), whole);

  // A later shard cannot receive an earlier one: out of shard order,
  // the merge throws and leaves the receiver as it was.
  gcp::RecordAccumulator late = records(12, 30);
  EXPECT_THROW(late.merge_from(records(0, 12)), std::logic_error);
  EXPECT_EQ(saved(late), saved(records(12, 30)));
}

TEST(RecordAccumulator, DuplicateUnitAtTheShardBoundaryThrows) {
  gcp::RecordAccumulator a = records(0, 10);
  EXPECT_THROW(a.merge_from(records(9, 20)), std::logic_error);
  EXPECT_EQ(saved(a), saved(records(0, 10)));  // left as it was
  EXPECT_THROW(a.merge_from(a), std::logic_error);
}

TEST(RecordAccumulator, SavedSuffixesAppendToTheWhole) {
  // A checkpoint log saves an accumulator in pieces: the k records held
  // at one save, then only the records added since. Loaded in order into
  // a fresh accumulator, the pieces rebuild the whole save byte for byte.
  constexpr std::uint64_t kN = 30;
  const std::string whole = saved(records(0, kN));
  const std::uint64_t held[] = {0, 1, 7, 29, kN};
  for (const std::uint64_t k : held) {
    ByteWriter w;
    records(0, k).save(w);
    records(0, kN).save(w, k);
    ByteReader r(w.bytes());
    gcp::RecordAccumulator back(2);
    back.load(r);
    back.load(r);
    EXPECT_TRUE(r.at_end()) << k;
    EXPECT_EQ(saved(back), whole) << k;
  }
  // A piece whose first unit does not follow the held ones (the same
  // piece again, one that overlaps, one that goes back) throws and leaves
  // the accumulator as it was.
  gcp::RecordAccumulator acc = records(0, 10);
  for (const std::string& piece :
       {saved(records(0, 10)), saved(records(9, 20)), saved(records(5, 6))}) {
    ByteReader r(piece);
    EXPECT_THROW(acc.load(r), std::runtime_error);
    EXPECT_EQ(saved(acc), saved(records(0, 10)));
  }
  // Pieces that fail only after load() has decoded records onto the ends
  // of its vectors: each throws and shrinks them back to the held records.
  const std::string good = saved(records(10, 20));
  const std::string kind = good.substr(0, 4);
  const auto piece = [&](std::uint64_t width,
                         const std::vector<std::uint64_t>& units,
                         std::size_t n_values) {
    ByteWriter w;
    w.raw(kind.data(), kind.size());
    w.u64(width);
    w.vec_u64(units);
    w.vec_f64(std::vector<double>(n_values, 0.25));
    return w.take();
  };
  gcp::RecordAccumulator wide(3);
  for (std::uint64_t u = 10; u < 20; ++u) {
    const double row[3] = {1.0, 2.0, 3.0};
    wide.add(u, row);
  }
  const std::pair<const char*, std::string> late[] = {
      {"width mismatch", saved(wide)},
      {"value count not units x width", piece(2, {10, 11, 12}, 5)},
      {"units going back inside the piece", piece(2, {10, 11, 9, 12}, 8)},
      {"cut off inside its values", good.substr(0, good.size() - 12)}};
  for (const auto& [what, bad] : late) {
    ByteReader r(bad);
    EXPECT_THROW(acc.load(r), std::runtime_error) << what;
    EXPECT_EQ(saved(acc), saved(records(0, 10))) << what;
  }
  // The rolled-back accumulator still takes the piece that follows it.
  ByteReader r(good);
  acc.load(r);
  EXPECT_EQ(saved(acc), saved(records(0, 20)));
}

TEST(RecordAccumulator, ReserveSizesMergesOnce) {
  // Reserved for every shard's records, a merged accumulator never moves
  // its records while the shards append to it.
  gcp::RecordAccumulator merged(2);
  merged.reserve(30);
  const double* const at = merged.values_at(0);
  for (const auto& c : {std::pair{0, 10}, std::pair{10, 25}, std::pair{25, 30}})
    merged.merge_from(records(c.first, c.second));
  EXPECT_EQ(merged.values_at(0), at);
  EXPECT_EQ(saved(merged), saved(records(0, 30)));
}

// ---------------------------------------------------------------------------
// The determinism contract
// ---------------------------------------------------------------------------

TEST(CampaignDeterminism, HashInvariantAcrossShardCountsAndModes) {
  const std::uint64_t ref = run_hash(1, gcp::Mode::kSerial);
  for (std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}})
    EXPECT_EQ(run_hash(shards, gcp::Mode::kSerial), ref) << shards;
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}})
    EXPECT_EQ(run_hash(shards, gcp::Mode::kThread), ref) << shards;
}

TEST(CampaignDeterminism, ResumeFromCheckpointMatchesUninterrupted) {
  const std::uint64_t ref = run_hash(1, gcp::Mode::kSerial);

  gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
  spec.checkpoint_dir = ::testing::TempDir() + "gdelay_campaign_resume";
  spec.checkpoint_every = 5;
  spec.stop_after_units = kUnits / 2 / 2;  // half of each shard's range

  const gcp::CampaignResult part =
      gcp::run_campaign(spec, make_accs, unit_work);
  EXPECT_FALSE(part.complete);
  EXPECT_EQ(part.units_done, kUnits / 2);

  spec.stop_after_units = 0;
  const gcp::CampaignResult full =
      gcp::run_campaign(spec, make_accs, unit_work);
  EXPECT_TRUE(full.complete);
  EXPECT_TRUE(full.resumed);
  EXPECT_EQ(full.units_done, kUnits);
  EXPECT_EQ(hash_accs(full.accumulators), ref);

  // After cleanup a rerun starts fresh — no stale state is picked up.
  gcp::remove_checkpoints(spec);
  const gcp::CampaignResult fresh =
      gcp::run_campaign(spec, make_accs, unit_work);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_EQ(hash_accs(fresh.accumulators), ref);
  gcp::remove_checkpoints(spec);
}

TEST(CampaignDeterminism, ForeignCheckpointIsRejected) {
  gcp::CampaignSpec spec = base_spec(1, gcp::Mode::kSerial);
  spec.checkpoint_dir = ::testing::TempDir() + "gdelay_campaign_foreign";
  spec.stop_after_units = 3;
  gcp::run_campaign(spec, make_accs, unit_work);  // leaves a checkpoint

  gcp::CampaignSpec other = spec;
  other.stop_after_units = 0;
  other.seed = spec.seed + 1;  // same name+dir, different campaign
  EXPECT_THROW(gcp::run_campaign(other, make_accs, unit_work),
               std::runtime_error);

  gcp::remove_checkpoints(spec);
}

TEST(CampaignDeterminism, TopologyChangeCannotAbsorbOldCheckpoints) {
  gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
  spec.checkpoint_dir = ::testing::TempDir() + "gdelay_campaign_topo";
  spec.stop_after_units = 3;
  gcp::run_campaign(spec, make_accs, unit_work);

  gcp::CampaignSpec wider = spec;
  wider.stop_after_units = 0;
  wider.n_shards = 4;  // shard 0/1 checkpoints carry the 2-shard fingerprint
  EXPECT_THROW(gcp::run_campaign(wider, make_accs, unit_work),
               std::runtime_error);

  gcp::remove_checkpoints(spec);
}

// ---------------------------------------------------------------------------
// Checkpoint logs on disk
// ---------------------------------------------------------------------------

namespace {

// Writes `bytes` to `path`, replacing the file: how these tests plant a
// damaged or hand-made checkpoint log.
void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string read_log(const gcp::CampaignSpec& spec, std::size_t shard) {
  return gcp::read_file(gcp::shard_checkpoint_path(spec, shard)).value();
}

// Runs a 2-shard campaign that saves every `every` units (0: only at the
// stop) and stops half way, leaving one checkpoint log per shard under
// `dir`, and returns the spec that resumes it.
gcp::CampaignSpec leave_checkpoints(const std::string& dir,
                                    std::uint64_t every = 0) {
  gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
  spec.checkpoint_dir = ::testing::TempDir() + dir;
  spec.checkpoint_every = every;
  spec.stop_after_units = kUnits / 2 / 2;
  gcp::remove_checkpoints(spec);  // no log left by an aborted run
  gcp::run_campaign(spec, make_accs, unit_work);
  spec.stop_after_units = 0;
  return spec;
}

// The frames of shard `shard`'s log in file order; the log must hold
// whole frames only.
std::vector<std::string> log_frames(const gcp::CampaignSpec& spec,
                                    std::size_t shard) {
  const std::string log = read_log(spec, shard);
  std::vector<std::string> frames;
  std::size_t at = 0;
  for (std::size_t n;
       (n = gcp::whole_frame_size(std::string_view(log).substr(at))) > 0;
       at += n)
    frames.push_back(log.substr(at, n));
  EXPECT_EQ(at, log.size());
  return frames;
}

std::string joined(const std::vector<std::string>& frames) {
  std::string log;
  for (const std::string& f : frames) log += f;
  return log;
}

}  // namespace

TEST(CampaignCheckpoint, FlippedByteOnDiskIsRejected) {
  const gcp::CampaignSpec spec = leave_checkpoints("gdelay_campaign_flip");
  const std::string path = gcp::shard_checkpoint_path(spec, 1);
  std::string bytes = *gcp::read_file(path);
  bytes[bytes.size() / 2] ^= 0x20;
  write_file(path, bytes);
  EXPECT_THROW(gcp::run_campaign(spec, make_accs, unit_work),
               std::runtime_error);
  gcp::remove_checkpoints(spec);
}

TEST(CampaignCheckpoint, SwappedShardFilesAreRejected) {
  // Both files carry the campaign's fingerprint, so only the shard-index
  // check can tell that shard 0 is reading shard 1's state.
  const gcp::CampaignSpec spec = leave_checkpoints("gdelay_campaign_swap");
  const std::string p0 = gcp::shard_checkpoint_path(spec, 0);
  const std::string p1 = gcp::shard_checkpoint_path(spec, 1);
  const std::string b0 = *gcp::read_file(p0);
  write_file(p0, *gcp::read_file(p1));
  write_file(p1, b0);
  try {
    gcp::run_campaign(spec, make_accs, unit_work);
    ADD_FAILURE() << "swapped checkpoints resumed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shard index"), std::string::npos)
        << e.what();
  }
  gcp::remove_checkpoints(spec);
}

namespace {

// Every shard file of `spec`, concatenated in shard order.
std::string shard_files(const gcp::CampaignSpec& spec) {
  std::string all;
  for (std::size_t s = 0; s < spec.n_shards; ++s) all += read_log(spec, s);
  return all;
}

// Byte offsets of a frame payload's outer fields: u64 fingerprint, u32
// shard, u64 from_unit, u64 next_unit, u32 accumulator count, then each
// accumulator's records added since the previous save, in factory order.
constexpr std::size_t kAtShard = 8, kAtFrom = 12, kAtNextUnit = 20,
                      kAtCount = 28;

// The payload of shard `shard`'s log, which must hold one frame.
std::string shard_state(const gcp::CampaignSpec& spec, std::size_t shard) {
  const std::string log = read_log(spec, shard);
  return std::string(gcp::unframe(log, gcp::kFrameShardState));
}

// Writes `payload` as shard `shard`'s one-frame log in a valid frame, so
// the checksum holds and only the payload parser can reject it.
void write_shard_state(const gcp::CampaignSpec& spec, std::size_t shard,
                       const std::string& payload) {
  write_file(gcp::shard_checkpoint_path(spec, shard),
             frame_of(payload));
}

// Overwrites `n` bytes at `at` with `v`, little-endian.
void put_le(std::string& bytes, std::size_t at, std::uint64_t v, int n) {
  for (int b = 0; b < n; ++b)
    bytes[at + static_cast<std::size_t>(b)] = static_cast<char>(v >> (8 * b));
}

// What shard `shard`'s log replays to: the next_unit of its last frame,
// then its records, every frame's loaded in order and saved whole.
std::string replayed_state(const gcp::CampaignSpec& spec, std::size_t shard) {
  gcp::AccumulatorSet accs = make_accs();
  std::uint64_t next_unit = 0;
  for (const std::string& f : log_frames(spec, shard)) {
    const std::string_view payload = gcp::unframe(f, gcp::kFrameShardState);
    ByteReader r(payload.data() + kAtNextUnit, payload.size() - kAtNextUnit);
    next_unit = r.u64();
    r.u32();  // accumulator count
    for (auto& a : accs) a->load(r);
  }
  ByteWriter w;
  w.u64(next_unit);
  for (const auto& a : accs) a->save(w);
  return w.take();
}

}  // namespace

TEST(CampaignCheckpoint, EachSaveAppendsToTheFile) {
  // Stops after 1, 2 and 3 periodic saves of one spec, each from scratch:
  // the log a stop after k saves leaves holds k frames and is a byte
  // prefix of the log after k + 1, so a save writes only its own frame.
  constexpr std::uint64_t kEvery = 3;
  std::string before[2];
  for (std::uint64_t k = 1; k <= 3; ++k) {
    gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
    spec.checkpoint_dir = ::testing::TempDir() + "gdelay_campaign_append";
    spec.checkpoint_every = kEvery;
    spec.stop_after_units = k * kEvery;
    gcp::remove_checkpoints(spec);  // no log left by an aborted run
    gcp::run_campaign(spec, make_accs, unit_work);
    for (std::size_t s = 0; s < 2; ++s) {
      const std::string log = read_log(spec, s);
      EXPECT_EQ(log_frames(spec, s).size(), k) << "shard " << s;
      EXPECT_GT(log.size(), before[s].size()) << "shard " << s;
      EXPECT_EQ(log.compare(0, before[s].size(), before[s]), 0)
          << "shard " << s << ": the log after " << k - 1
          << " saves is not a prefix of the log after " << k;
      before[s] = log;
    }
    gcp::remove_checkpoints(spec);
  }
}

TEST(CampaignCheckpoint, StoppedShardStateDoesNotDependOnCheckpointEvery) {
  // A stop at 10 units per shard after saves every 5 (2 frames), every 3
  // (3 periodic frames and a final one) or only at the stop (1 frame):
  // the logs cut the records into different frames, but replay to the
  // same records and the same next unit, and each resumes to the
  // reference hash.
  const std::uint64_t ref = run_hash(1, gcp::Mode::kSerial);
  const struct {
    std::uint64_t every;
    std::size_t frames;
  } cases[] = {{5, 2}, {3, 4}, {0, 1}};
  std::vector<std::string> states;
  for (const auto& c : cases) {
    gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
    spec.checkpoint_dir = ::testing::TempDir() + "gdelay_campaign_every" +
                          std::to_string(c.every);
    spec.checkpoint_every = c.every;
    spec.stop_after_units = 10;
    gcp::remove_checkpoints(spec);  // no log left by an aborted run
    const gcp::CampaignResult part =
        gcp::run_campaign(spec, make_accs, unit_work);
    EXPECT_FALSE(part.complete);
    std::string state;
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_EQ(log_frames(spec, s).size(), c.frames)
          << "every " << c.every << ", shard " << s;
      state += replayed_state(spec, s);
    }
    states.push_back(state);

    spec.stop_after_units = 0;
    const gcp::CampaignResult full =
        gcp::run_campaign(spec, make_accs, unit_work);
    EXPECT_TRUE(full.resumed);
    EXPECT_EQ(hash_accs(full.accumulators), ref) << "every " << c.every;
    gcp::remove_checkpoints(spec);
  }
  EXPECT_EQ(states[1], states[0]);
  EXPECT_EQ(states[2], states[0]);
}

TEST(CampaignCheckpoint, RerunningACompleteCampaignAppendsNothing) {
  // Each shard's range end lands on a periodic save, so its last frame is
  // already on disk. A rerun replays both complete logs, runs no unit and
  // appends nothing: the files keep their bytes.
  gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
  spec.checkpoint_dir = ::testing::TempDir() + "gdelay_campaign_complete";
  spec.checkpoint_every = 5;
  gcp::remove_checkpoints(spec);  // no log left by an aborted run
  gcp::run_campaign(spec, make_accs, unit_work);
  const std::string before = shard_files(spec);

  const gcp::CampaignResult again =
      gcp::run_campaign(spec, make_accs, unit_work);
  EXPECT_TRUE(again.complete);
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.units_done, kUnits);
  EXPECT_EQ(hash_accs(again.accumulators), run_hash(1, gcp::Mode::kSerial));
  EXPECT_EQ(shard_files(spec), before);
  gcp::remove_checkpoints(spec);
}

TEST(CampaignCheckpoint, TornTailResumesFromTheLastWholeFrame) {
  // A campaign killed during a save leaves a torn last frame. Shard 0's
  // 3-frame log is cut at every byte inside its last frame and at a few
  // inside its first: before the shard runs a unit, the loader must have
  // cut the file back to the end of its last whole frame (to nothing when
  // there is none), and the resume must complete at the reference hash.
  const std::uint64_t ref = run_hash(1, gcp::Mode::kSerial);
  gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
  spec.checkpoint_dir = ::testing::TempDir() + "gdelay_campaign_torn";
  spec.checkpoint_every = 3;
  spec.stop_after_units = 9;
  gcp::remove_checkpoints(spec);  // no log left by an aborted run
  gcp::run_campaign(spec, make_accs, unit_work);
  spec.stop_after_units = 0;

  const std::string path0 = gcp::shard_checkpoint_path(spec, 0);
  const std::string path1 = gcp::shard_checkpoint_path(spec, 1);
  const std::string log0 = read_log(spec, 0), log1 = read_log(spec, 1);
  const std::vector<std::string> frames = log_frames(spec, 0);
  ASSERT_EQ(frames.size(), 3u);
  const std::size_t first = frames[0].size();
  const std::size_t two = first + frames[1].size();
  std::vector<std::size_t> cuts = {0, 1, 19, 20, 27, 28, first / 2, first - 1};
  for (std::size_t c = two; c < log0.size(); ++c) cuts.push_back(c);

  const gcp::ShardRange shard0 = gcp::plan_shards(kUnits, 2)[0];
  for (const std::size_t cut : cuts) {
    write_file(path0, log0.substr(0, cut));
    write_file(path1, log1);
    std::optional<std::uintmax_t> size_at_first_unit;
    const auto watched = [&](std::uint64_t u, Rng& rng,
                             gcp::AccumulatorSet& accs) {
      if (u < shard0.end && !size_at_first_unit)
        size_at_first_unit = std::filesystem::file_size(path0);
      unit_work(u, rng, accs);
    };
    const gcp::CampaignResult r = gcp::run_campaign(spec, make_accs, watched);
    EXPECT_TRUE(r.complete) << "cut at " << cut;
    EXPECT_EQ(hash_accs(r.accumulators), ref) << "cut at " << cut;
    EXPECT_EQ(size_at_first_unit.value_or(~std::uintmax_t{0}),
              cut >= two ? two : 0)
        << "cut at " << cut;
  }
  gcp::remove_checkpoints(spec);
}

TEST(CampaignCheckpoint, FramesOutOfSequenceAreRejected) {
  // Every frame is whole and checks out on its own; only its from_unit
  // ties it to the frame before. A dropped middle frame would resume with
  // units missing, a duplicated one with units twice, swapped ones out of
  // unit order: each throws.
  const gcp::CampaignSpec spec = leave_checkpoints("gdelay_campaign_seq", 3);
  const std::vector<std::string> f = log_frames(spec, 0);  // to 3, 6, 9, 10
  ASSERT_EQ(f.size(), 4u);
  const std::pair<const char*, std::string> logs[] = {
      {"dropped", f[0] + f[2] + f[3]},
      {"duplicated", f[0] + f[1] + f[1] + f[2] + f[3]},
      {"swapped", f[1] + f[0] + f[2] + f[3]}};
  for (const auto& [what, log] : logs) {
    write_file(gcp::shard_checkpoint_path(spec, 0), log);
    try {
      gcp::run_campaign(spec, make_accs, unit_work);
      ADD_FAILURE() << what << " frame resumed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("out of sequence"),
                std::string::npos)
          << what << ": " << e.what();
    }
  }
  gcp::remove_checkpoints(spec);
}

TEST(CampaignCheckpoint, RecordsOutsideTheResumedRangeAreRejected) {
  // 2 shards x 20 units stopped after 10: shard 0's one frame holds units
  // 0-9 from unit 0 to next_unit 10. A next_unit lowered to 3 would run
  // units 3-9 a second time; it is a corrupt checkpoint, rejected when it
  // is loaded.
  const gcp::CampaignSpec spec = leave_checkpoints("gdelay_campaign_range");
  const std::string shard0 = shard_state(spec, 0);
  std::string lowered = shard0;
  put_le(lowered, kAtNextUnit, 3, 8);
  write_shard_state(spec, 0, lowered);
  EXPECT_THROW(gcp::run_campaign(spec, make_accs, unit_work),
               std::runtime_error);

  // Shard 0's state relabelled as shard 1's (units 20-39) from unit 20
  // to 30: its records, units 0-9, belong to shard 0.
  write_shard_state(spec, 0, shard0);
  std::string moved = shard0;
  put_le(moved, kAtShard, 1, 4);
  put_le(moved, kAtFrom, 20, 8);
  put_le(moved, kAtNextUnit, 30, 8);
  write_shard_state(spec, 1, moved);
  EXPECT_THROW(gcp::run_campaign(spec, make_accs, unit_work),
               std::runtime_error);
  gcp::remove_checkpoints(spec);
}

// ---------------------------------------------------------------------------
// Checkpoint frames (envelope + checksum) and files
// ---------------------------------------------------------------------------

TEST(CheckpointFrame, RoundTripsPayload) {
  const std::string payload = "campaign shard state bytes \x00\x01\x7f";
  const std::string framed = frame_of(payload);
  const std::string_view back = gcp::unframe(framed, gcp::kFrameShardState);
  EXPECT_EQ(back, payload);
  // A view of the payload inside the frame, not a copy of it.
  EXPECT_EQ(back.data(), framed.data() + 20);
}

TEST(CheckpointFrame, SealedInThePayloadsBuffer) {
  // begin_frame() reserves the whole frame, the payload is written after
  // its header, and seal_frame() hands back that same buffer: the frame is
  // never copied. A hint too short only regrows it; the bytes are the
  // same.
  const std::string payload(300, 'q');
  ByteWriter w;
  gcp::begin_frame(w, gcp::kFrameShardState, payload.size());
  const char* const buffer = w.bytes().data();
  w.raw(payload.data(), payload.size());
  const std::string framed = gcp::seal_frame(w);
  EXPECT_EQ(framed.data(), buffer);
  EXPECT_EQ(framed.size(), 20u + payload.size() + 8u);
  EXPECT_EQ(gcp::unframe(framed, gcp::kFrameShardState), payload);
  ByteWriter short_hint;
  gcp::begin_frame(short_hint, gcp::kFrameShardState, 1);
  short_hint.raw(payload.data(), payload.size());
  EXPECT_EQ(gcp::seal_frame(short_hint), framed);
  EXPECT_EQ(gcp::unframe(frame_of(""), gcp::kFrameShardState), "");
}

namespace {

// 256 payload bytes, all distinct, so its 32 eight-byte words differ.
std::string distinct_payload() {
  std::string s(256, '\0');
  for (std::size_t i = 0; i < s.size(); ++i)
    s[i] = static_cast<char>((i * 131 + 7) & 0xff);
  return s;
}

}  // namespace

TEST(CheckpointFrame, RejectsBitFlipAnywhereInPayload) {
  // Every bit of the frame: the envelope checks catch header flips, the
  // XXH64 checksum catches payload and trailer flips. 284 bytes, 2,272
  // flips.
  const std::string framed = frame_of(distinct_payload());
  ASSERT_EQ(framed.size(), 20u + 256u + 8u);
  for (std::size_t bit = 0; bit < 8 * framed.size(); ++bit) {
    std::string bad = framed;
    bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_THROW(gcp::unframe(bad, gcp::kFrameShardState), std::runtime_error)
        << "bit " << bit;
  }
}

TEST(CheckpointFrame, RejectsEveryPayloadWordSwap) {
  // A word-parallel checksum that folds its words position-blind (a sum
  // or XOR of separately mixed words) misses a swap, which no single-bit
  // flip shows; XXH64 chains each lane's words, so it must not. 32
  // words, 496 swaps.
  const std::string framed = frame_of(distinct_payload());
  constexpr std::size_t kHeader = 20, kWords = 256 / 8;
  for (std::size_t i = 0; i < kWords; ++i) {
    for (std::size_t j = i + 1; j < kWords; ++j) {
      std::string bad = framed;
      std::swap_ranges(bad.begin() + kHeader + 8 * i,
                       bad.begin() + kHeader + 8 * i + 8,
                       bad.begin() + kHeader + 8 * j);
      EXPECT_THROW(gcp::unframe(bad, gcp::kFrameShardState),
                   std::runtime_error)
          << "words " << i << " and " << j;
    }
  }
}

TEST(CheckpointFrame, Version3LayoutIsPinned) {
  // "GDCK", version 3, kind 1, size 3, "abc", XXH64("abc") little-endian.
  const std::string framed = frame_of("abc");
  static const char kHex[] = "0123456789abcdef";
  std::string hex;
  for (const char c : framed) {
    hex.push_back(kHex[static_cast<unsigned char>(c) >> 4]);
    hex.push_back(kHex[static_cast<unsigned char>(c) & 0xf]);
  }
  EXPECT_EQ(hex,
            "4744434b030000000100000003000000000000006162639909"
            "77adf52cbc44");
}

TEST(CheckpointFrame, RejectsVersion1Frame) {
  // A version-1 frame as the previous format wrote it: the same header
  // with version 1 and an FNV-1a64 trailer. It is never resumed.
  const std::string payload = "campaign shard state";
  ByteWriter w;
  w.u32(gcp::kCheckpointMagic);
  w.u32(1);
  w.u32(gcp::kFrameShardState);
  w.u64(payload.size());
  w.raw(payload.data(), payload.size());
  w.u64(fnv1a64(payload.data(), payload.size()));
  try {
    gcp::unframe(w.bytes(), gcp::kFrameShardState);
    FAIL() << "a version-1 frame was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("restart"), std::string::npos) << what;
  }
}

TEST(CheckpointFrame, RejectsOlderVersions) {
  // Frames as older builds wrote them, each with a valid trailer of its
  // kind: version 1 (FNV-1a64) and version 2 (XXH64, around a
  // whole-state payload). Neither is resumed; the message names the
  // version and says to restart.
  const std::string payload = "campaign shard state";
  for (const std::uint32_t version : {1u, 2u}) {
    ByteWriter w;
    w.u32(gcp::kCheckpointMagic);
    w.u32(version);
    w.u32(gcp::kFrameShardState);
    w.u64(payload.size());
    w.raw(payload.data(), payload.size());
    w.u64(version == 1 ? fnv1a64(payload.data(), payload.size())
                       : gdelay::util::xxh64(payload.data(), payload.size()));
    try {
      gcp::unframe(w.bytes(), gcp::kFrameShardState);
      ADD_FAILURE() << "a version-" << version << " frame was accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(version)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("restart"), std::string::npos) << what;
    }
  }
}

TEST(CheckpointFrame, RejectsTruncation) {
  const std::string framed = frame_of(std::string(64, 'y'));
  for (std::size_t keep : {framed.size() - 1, framed.size() / 2,
                           std::size_t{3}, std::size_t{0}}) {
    EXPECT_THROW(gcp::unframe(framed.substr(0, keep), gcp::kFrameShardState),
                 std::runtime_error)
        << "kept " << keep;
  }
}

TEST(CheckpointFrame, RejectsOversizedLengthField) {
  // A size field near 2^64 must not wrap the truncation check (size + 8
  // would be 0 here) and reach the payload allocation.
  std::string framed = frame_of("p");
  for (std::size_t i = 0; i < 8; ++i)
    framed[12 + i] = static_cast<char>(i == 0 ? 0xf8 : 0xff);
  EXPECT_THROW(gcp::unframe(framed, gcp::kFrameShardState),
               std::runtime_error);
}

TEST(CheckpointFrame, RejectsWrongKindAndBadMagic) {
  const std::string framed = frame_of("p");
  EXPECT_THROW(gcp::unframe(framed, gcp::kFrameShardState + 1),
               std::runtime_error);
  std::string bad = framed;
  bad[0] = static_cast<char>(bad[0] ^ 0xff);
  EXPECT_THROW(gcp::unframe(bad, gcp::kFrameShardState), std::runtime_error);
}

TEST(CheckpointFile, AppendCreatesParentsAndRoundTrips) {
  const std::string root = ::testing::TempDir() + "gdelay_ckpt_test";
  const std::string path = root + "/nested/state.ckpt";
  std::filesystem::remove_all(root);
  const std::string a = frame_of("abc");
  const std::string b = frame_of("de");

  gcp::append_file(path, a);  // parents did not exist
  gcp::append_file(path, b);
  auto back = gcp::read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, a + b);
  EXPECT_EQ(gcp::whole_frame_size(*back), a.size());

  EXPECT_TRUE(gcp::remove_file(path));
  EXPECT_FALSE(gcp::remove_file(path));
  EXPECT_FALSE(gcp::read_file(path).has_value());
  std::filesystem::remove_all(root);
}

TEST(CheckpointFile, ReadsEmptyAndLargeFilesWhole) {
  // read_file sizes its string from the file's size and reads it in one
  // go: an empty file is an engaged empty string, never std::nullopt, and
  // a 3 MiB file comes back byte for byte.
  const std::string root = ::testing::TempDir() + "gdelay_ckpt_sizes";
  std::filesystem::create_directories(root);
  const std::string empty = root + "/empty.ckpt", big = root + "/big.ckpt";
  write_file(empty, "");
  const std::optional<std::string> none = gcp::read_file(empty);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
  std::string bytes(3u << 20, '\0');
  Rng rng(3);
  for (char& c : bytes) c = static_cast<char>(rng.below(256));
  write_file(big, bytes);
  const std::optional<std::string> back = gcp::read_file(big);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == bytes);
  std::filesystem::remove_all(root);
}

TEST(CheckpointFile, ReadErrorThrows) {
  // A directory opens for reading, but every read of it fails. That must
  // throw, not pass for an empty file, which the log loader would take
  // for a torn tail and cut.
  const std::string dir = ::testing::TempDir() + "gdelay_ckpt_read_error";
  std::filesystem::create_directories(dir);
  try {
    gcp::read_file(dir);
    ADD_FAILURE() << "a failed read returned a file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(dir);
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzing of the checkpoint parsers
// ---------------------------------------------------------------------------

TEST(CheckpointFuzz, SeededMutationsThrowOrRoundTrip) {
  // A real RecordAccumulator payload: u32 kind, u64 width, u64 unit
  // count, the units, u64 value count, the values. Its units start at
  // 100, so it follows the held accumulator's units 0-9.
  gcp::RecordAccumulator src(3);
  Rng values(9);
  for (std::uint64_t u = 0; u < 17; ++u) {
    const double row[3] = {values.gaussian(), values.uniform(), -1.0};
    src.add(100 + 3 * u, row);
  }
  ByteWriter w;
  src.save(w);
  const std::string payload = w.take();
  gcp::RecordAccumulator held_records(3);
  for (std::uint64_t u = 0; u < 10; ++u) {
    const double row[3] = {0.5 * static_cast<double>(u), -1.0, 2.0};
    held_records.add(u, row);
  }
  ByteWriter held_w;
  held_records.save(held_w);
  const std::string held_bytes = held_w.take();
  const std::size_t fields[3] = {4, 12, 20 + 8 * src.size()};
  const std::uint64_t specials[] = {
      0, 1, 2, 3, 16, 17, 18, 50, 51, 52, std::uint64_t{1} << 32,
      (std::uint64_t{1} << 61) + 1, std::uint64_t{1} << 63, ~std::uint64_t{0}};

  // Each mutant travels inside a valid frame, so unframe() hands it to
  // the parser, which must throw std::runtime_error or load a state whose
  // save() is exactly the bytes it consumed. It is loaded a second time
  // into an accumulator holding units 0-9: a rejected mutant must leave
  // those records byte for byte as they were (load() decodes onto the
  // ends of the held vectors, so it must roll them back), and an accepted
  // one must append exactly the records it consumed.
  std::size_t loaded = 0, rejected = 0;
  const auto check = [&](const std::string& mutant) {
    const std::string framed = frame_of(mutant);
    const std::string_view body = gcp::unframe(framed, gcp::kFrameShardState);
    ByteReader held_r(body);
    gcp::RecordAccumulator held = held_records;
    bool held_loaded = true;
    try {
      held.load(held_r);
    } catch (const std::runtime_error&) {
      held_loaded = false;
      ByteWriter back;
      held.save(back);
      EXPECT_EQ(back.bytes(), held_bytes) << "a rejected load changed it";
    }
    ByteReader r(body);
    gcp::RecordAccumulator acc(3);
    try {
      acc.load(r);
    } catch (const std::runtime_error&) {
      ++rejected;
      EXPECT_FALSE(held_loaded) << "a held accumulator took a bad piece";
      return;
    }
    ++loaded;
    ByteWriter back;
    acc.save(back);
    EXPECT_EQ(back.bytes(), body.substr(0, body.size() - r.remaining()));
    if (!held_loaded) return;  // its first unit does not follow unit 9
    EXPECT_EQ(held_r.remaining(), r.remaining());
    gcp::RecordAccumulator expect = held_records;
    expect.merge_from(acc);
    ByteWriter whole, appended;
    held.save(whole);
    expect.save(appended);
    EXPECT_EQ(whole.bytes(), appended.bytes());
  };

  Rng rng(0x5eedf022);
  constexpr int kMutants = 5000;
  for (int i = 0; i < kMutants; ++i) {  // byte flips
    std::string m = payload;
    const std::uint64_t flips = 1 + rng.below(4);
    for (std::uint64_t f = 0; f < flips; ++f)
      m[rng.below(m.size())] ^= static_cast<char>(1 + rng.below(255));
    check(m);
  }
  for (int i = 0; i < kMutants; ++i)  // truncations
    check(payload.substr(0, rng.below(payload.size())));
  for (int i = 0; i < kMutants; ++i) {  // width and count overwrites
    std::string m = payload;
    const std::size_t at = fields[rng.below(3)];
    const std::uint64_t v =
        rng.bit() ? specials[rng.below(std::size(specials))] : rng.next_u64();
    for (int b = 0; b < 8; ++b) m[at + b] = static_cast<char>(v >> (8 * b));
    check(m);
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(loaded + rejected, 3u * kMutants);

  // The frame itself: any flip in its header, or any truncation, is
  // rejected before a parser runs.
  const std::string framed = frame_of(payload);
  for (std::size_t i = 0; i < 4 + 4 + 4 + 8; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string m = framed;
      m[i] = static_cast<char>(m[i] ^ (1 << bit));
      EXPECT_THROW(gcp::unframe(m, gcp::kFrameShardState), std::runtime_error)
          << "byte " << i << " bit " << bit;
    }
  }
  for (std::size_t keep = 0; keep < framed.size(); ++keep)
    EXPECT_THROW(gcp::unframe(framed.substr(0, keep), gcp::kFrameShardState),
                 std::runtime_error)
        << "kept " << keep;
}

TEST(CheckpointFuzz, MutatedShardStatesThrowOrResume) {
  // The logs a stopped campaign leaves (2 shards x 20 units, saved every
  // 3 units and stopped after 10: frames to units 3, 6, 9 and 10 of each
  // shard). A frame's payload is mutated in its outer fields or in its
  // bytes, re-framed so the checksum holds, and resumed: each resume must
  // throw std::runtime_error or complete. A std::logic_error (a unit run
  // twice, a merge out of unit order), a crash or a hang means the loader
  // let a bad state through. Whole frames dropped from the middle,
  // duplicated or swapped must throw. A log cut anywhere is a torn tail
  // and must resume to the reference hash.
  const gcp::CampaignSpec spec = leave_checkpoints("gdelay_campaign_fuzz", 3);
  const std::vector<std::string> frames[2] = {log_frames(spec, 0),
                                              log_frames(spec, 1)};
  ASSERT_EQ(frames[0].size(), 4u);
  ASSERT_EQ(frames[1].size(), 4u);
  const auto ranges = gcp::plan_shards(kUnits, 2);
  const std::uint64_t ref = run_hash(1, gcp::Mode::kSerial);

  // Resumes with shard `shard`'s log replaced by `log`; the merged hash,
  // or nothing when the resume threw std::runtime_error.
  std::size_t resumed = 0, rejected = 0;
  const auto resume = [&](std::size_t shard, const std::string& log,
                          const std::string& what) {
    std::optional<std::uint64_t> hash;
    for (std::size_t s = 0; s < 2; ++s)
      write_file(gcp::shard_checkpoint_path(spec, s),
                 s == shard ? log : joined(frames[s]));
    try {
      const gcp::CampaignResult r =
          gcp::run_campaign(spec, make_accs, unit_work);
      EXPECT_TRUE(r.complete) << what;
      hash = hash_accs(r.accumulators);
      ++resumed;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "shard " << shard << ", " << what << ": " << e.what();
    }
    return hash;
  };
  // Shard `shard`'s log with frame `f`'s payload replaced by `payload`.
  const auto with_payload = [&](std::size_t shard, std::size_t f,
                                const std::string& payload) {
    std::vector<std::string> log = frames[shard];
    log[f] = frame_of(payload);
    return joined(log);
  };
  const auto payload_of = [&](std::size_t shard, std::size_t f) {
    return std::string(gcp::unframe(frames[shard][f], gcp::kFrameShardState));
  };
  const auto overwrite = [&](std::size_t shard, std::size_t f, std::size_t at,
                             std::uint64_t v, int n, const char* field) {
    std::string m = payload_of(shard, f);
    put_le(m, at, v, n);
    resume(shard, with_payload(shard, f, m),
           std::string(field) + " = " + std::to_string(v) + " in frame " +
               std::to_string(f));
  };

  Rng rng(0x5eed5a4d);
  const std::uint64_t big[] = {std::uint64_t{1} << 32, std::uint64_t{1} << 63,
                               ~std::uint64_t{0}};
  for (std::size_t s = 0; s < 2; ++s) {
    const std::size_t last = frames[s].size() - 1;
    for (const std::size_t f : {std::size_t{0}, last}) {
      overwrite(s, f, 0, rng.next_u64(), 8, "fingerprint");
      overwrite(s, f, 0, gcp::spec_fingerprint(spec) ^ 1, 8, "fingerprint");
      for (std::uint64_t v : {0ull, 1ull, 2ull, 0xffffffffull})
        overwrite(s, f, kAtShard, v, 4, "shard");
      // Every from_unit and next_unit from begin - 1 to end + 1 (the
      // frame's own bounds, its records and the range ends among them),
      // then huge ones.
      for (std::uint64_t v = ranges[s].begin - 1; v != ranges[s].end + 2;
           ++v) {
        overwrite(s, f, kAtFrom, v, 8, "from_unit");
        overwrite(s, f, kAtNextUnit, v, 8, "next_unit");
      }
      for (std::uint64_t v : big) {
        overwrite(s, f, kAtFrom, v, 8, "from_unit");
        overwrite(s, f, kAtNextUnit, v, 8, "next_unit");
      }
      for (std::uint64_t v : {0ull, 1ull, 3ull, 0xffffffffull})
        overwrite(s, f, kAtCount, v, 4, "accumulator count");
    }
    // Whole frames out of sequence. Dropping the last frame is not among
    // them: that log is a cut at a frame boundary.
    for (std::size_t f = 0; f <= last; ++f) {
      std::vector<std::string> log = frames[s];
      log.insert(log.begin() + static_cast<std::ptrdiff_t>(f), frames[s][f]);
      EXPECT_FALSE(resume(s, joined(log), "duplicated frame").has_value())
          << "shard " << s << ", frame " << f << " twice";
      if (f == last) continue;
      log = frames[s];
      log.erase(log.begin() + static_cast<std::ptrdiff_t>(f));
      EXPECT_FALSE(resume(s, joined(log), "dropped frame").has_value())
          << "shard " << s << ", frame " << f << " dropped";
      log = frames[s];
      std::swap(log[f], log[f + 1]);
      EXPECT_FALSE(resume(s, joined(log), "swapped frames").has_value())
          << "shard " << s << ", frames " << f << " and " << f + 1;
    }
  }
  constexpr int kMutants = 200;
  for (int i = 0; i < kMutants; ++i) {  // byte flips anywhere in a payload
    const std::size_t s = rng.below(2);
    const std::size_t f = rng.below(frames[s].size());
    std::string m = payload_of(s, f);
    const std::uint64_t flips = 1 + rng.below(4);
    for (std::uint64_t k = 0; k < flips; ++k)
      m[rng.below(m.size())] ^= static_cast<char>(1 + rng.below(255));
    resume(s, with_payload(s, f, m), "byte flips " + std::to_string(i));
  }
  for (int i = 0; i < kMutants / 2; ++i) {  // the log cut anywhere
    const std::size_t s = rng.below(2);
    const std::string log = joined(frames[s]);
    const std::size_t cut = rng.below(log.size());
    EXPECT_EQ(resume(s, log.substr(0, cut), "cut").value_or(0), ref)
        << "shard " << s << " cut at " << cut << " of " << log.size();
  }
  EXPECT_GT(resumed, 0u);
  EXPECT_GT(rejected, 0u);
  gcp::remove_checkpoints(spec);
}
