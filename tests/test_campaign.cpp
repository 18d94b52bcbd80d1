// Campaign orchestration: sharding, per-unit substreams, checkpoints,
// merges. The headline contract under test is determinism — the merged
// result is bit-identical for ANY shard count, ANY execution mode
// (serial / thread) and ANY resume point — plus the guard rails around
// it: checkpoints from a different spec or topology, corrupt checkpoint
// files and swapped shard files are rejected, the frame layer refuses
// truncated, bit-flipped or word-swapped bytes and version-1 frames
// outright, seeded mutants of a real
// payload or of a stopped campaign's shard states either throw
// std::runtime_error or round-trip (resume), and RecordAccumulator
// merges only append, so floating-point reductions stay in unit order
// by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
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
// Checkpoint files on disk
// ---------------------------------------------------------------------------

namespace {

// Runs a 2-shard campaign that stops half way, leaving one checkpoint
// file per shard under `dir`, and returns the spec that resumes it.
gcp::CampaignSpec leave_checkpoints(const std::string& dir) {
  gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
  spec.checkpoint_dir = ::testing::TempDir() + dir;
  spec.stop_after_units = kUnits / 2 / 2;
  gcp::run_campaign(spec, make_accs, unit_work);
  spec.stop_after_units = 0;
  return spec;
}

}  // namespace

TEST(CampaignCheckpoint, FlippedByteOnDiskIsRejected) {
  const gcp::CampaignSpec spec = leave_checkpoints("gdelay_campaign_flip");
  const std::string path = gcp::shard_checkpoint_path(spec, 1);
  std::string bytes = *gcp::read_file(path);
  bytes[bytes.size() / 2] ^= 0x20;
  gcp::write_file_atomic(path, bytes);
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
  gcp::write_file_atomic(p0, *gcp::read_file(p1));
  gcp::write_file_atomic(p1, b0);
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
  for (std::size_t s = 0; s < spec.n_shards; ++s)
    all += gcp::read_file(gcp::shard_checkpoint_path(spec, s)).value();
  return all;
}

// Byte offsets of a shard state payload's outer fields: u64
// fingerprint, u32 shard, u64 next_unit, u8 resumed, u8 complete, u32
// accumulator count, then the accumulator payloads in factory order.
constexpr std::size_t kAtShard = 8, kAtNextUnit = 12, kAtResumed = 20,
                      kAtComplete = 21, kAtCount = 22;

// The payload of shard `shard`'s checkpoint file.
std::string shard_state(const gcp::CampaignSpec& spec, std::size_t shard) {
  const std::string file =
      gcp::read_file(gcp::shard_checkpoint_path(spec, shard)).value();
  return gcp::unframe(file, gcp::kFrameShardState);
}

// Writes `payload` as shard `shard`'s checkpoint in a valid frame, so
// the checksum holds and only the payload parser can reject it.
void write_shard_state(const gcp::CampaignSpec& spec, std::size_t shard,
                       const std::string& payload) {
  gcp::write_file_atomic(gcp::shard_checkpoint_path(spec, shard),
                         gcp::frame(gcp::kFrameShardState, payload));
}

// Overwrites `n` bytes at `at` with `v`, little-endian.
void put_le(std::string& bytes, std::size_t at, std::uint64_t v, int n) {
  for (int b = 0; b < n; ++b)
    bytes[at + static_cast<std::size_t>(b)] = static_cast<char>(v >> (8 * b));
}

bool resumed_flag(const gcp::CampaignSpec& spec, std::size_t shard) {
  return shard_state(spec, shard)[kAtResumed] != 0;
}

}  // namespace

TEST(CampaignCheckpoint, StoppedShardFileDoesNotDependOnCheckpointEvery) {
  // A stop at 10 units per shard lands on a periodic save when every = 5
  // (the final save is skipped), between saves when every = 3, and every
  // = 0 writes only the final save: all three leave the same files.
  const std::uint64_t ref = run_hash(1, gcp::Mode::kSerial);
  std::vector<std::string> files;
  for (const std::uint64_t every : {5u, 3u, 0u}) {
    gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
    spec.checkpoint_dir = ::testing::TempDir() + "gdelay_campaign_every" +
                          std::to_string(every);
    spec.checkpoint_every = every;
    spec.stop_after_units = 10;
    gcp::remove_checkpoints(spec);  // no state left by an aborted run
    const gcp::CampaignResult part =
        gcp::run_campaign(spec, make_accs, unit_work);
    EXPECT_FALSE(part.complete);
    files.push_back(shard_files(spec));

    spec.stop_after_units = 0;
    const gcp::CampaignResult full =
        gcp::run_campaign(spec, make_accs, unit_work);
    EXPECT_TRUE(full.resumed);
    EXPECT_EQ(hash_accs(full.accumulators), ref) << "every " << every;
    gcp::remove_checkpoints(spec);
  }
  EXPECT_EQ(files[1], files[0]);
  EXPECT_EQ(files[2], files[0]);
}

TEST(CampaignCheckpoint, ResumingACompleteShardRewritesItsResumedByte) {
  // Each shard's range end lands on a periodic save, whose file then
  // already holds the final state. A rerun resumes both complete shards,
  // runs no unit, and must still re-write each file: the resumed byte
  // differs.
  gcp::CampaignSpec spec = base_spec(2, gcp::Mode::kSerial);
  spec.checkpoint_dir = ::testing::TempDir() + "gdelay_campaign_complete";
  spec.checkpoint_every = 5;
  gcp::remove_checkpoints(spec);  // no state left by an aborted run
  gcp::run_campaign(spec, make_accs, unit_work);
  for (std::size_t s = 0; s < 2; ++s) EXPECT_FALSE(resumed_flag(spec, s));

  const gcp::CampaignResult again =
      gcp::run_campaign(spec, make_accs, unit_work);
  EXPECT_TRUE(again.complete);
  EXPECT_TRUE(again.resumed);
  EXPECT_EQ(again.units_done, kUnits);
  EXPECT_EQ(hash_accs(again.accumulators), run_hash(1, gcp::Mode::kSerial));
  for (std::size_t s = 0; s < 2; ++s) EXPECT_TRUE(resumed_flag(spec, s)) << s;
  gcp::remove_checkpoints(spec);
}

TEST(CampaignCheckpoint, RecordsOutsideTheResumedRangeAreRejected) {
  // 2 shards x 20 units stopped after 10: shard 0 holds units 0-9 and
  // next_unit 10. A next_unit lowered to 3 would run units 3-9 a second
  // time; it is a corrupt checkpoint, rejected when it is loaded.
  const gcp::CampaignSpec spec = leave_checkpoints("gdelay_campaign_range");
  const std::string shard0 = shard_state(spec, 0);
  std::string lowered = shard0;
  put_le(lowered, kAtNextUnit, 3, 8);
  write_shard_state(spec, 0, lowered);
  EXPECT_THROW(gcp::run_campaign(spec, make_accs, unit_work),
               std::runtime_error);

  // Shard 0's state relabelled as shard 1's (units 20-39) at next_unit
  // 30: its records, units 0-9, belong to shard 0.
  write_shard_state(spec, 0, shard0);
  std::string moved = shard0;
  put_le(moved, kAtShard, 1, 4);
  put_le(moved, kAtNextUnit, 30, 8);
  write_shard_state(spec, 1, moved);
  EXPECT_THROW(gcp::run_campaign(spec, make_accs, unit_work),
               std::runtime_error);
  gcp::remove_checkpoints(spec);
}

// ---------------------------------------------------------------------------
// Checkpoint frames (envelope + checksum + atomic files)
// ---------------------------------------------------------------------------

TEST(CheckpointFrame, RoundTripsPayload) {
  const std::string payload = "campaign shard state bytes \x00\x01\x7f";
  const std::string framed = gcp::frame(gcp::kFrameShardState, payload);
  EXPECT_EQ(gcp::unframe(framed, gcp::kFrameShardState), payload);
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
  const std::string framed =
      gcp::frame(gcp::kFrameShardState, distinct_payload());
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
  const std::string framed =
      gcp::frame(gcp::kFrameShardState, distinct_payload());
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

TEST(CheckpointFrame, Version2LayoutIsPinned) {
  // "GDCK", version 2, kind 1, size 3, "abc", XXH64("abc") little-endian.
  const std::string framed = gcp::frame(gcp::kFrameShardState, "abc");
  static const char kHex[] = "0123456789abcdef";
  std::string hex;
  for (const char c : framed) {
    hex.push_back(kHex[static_cast<unsigned char>(c) >> 4]);
    hex.push_back(kHex[static_cast<unsigned char>(c) & 0xf]);
  }
  EXPECT_EQ(hex,
            "4744434b020000000100000003000000000000006162639909"
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

TEST(CheckpointFrame, RejectsTruncation) {
  const std::string framed =
      gcp::frame(gcp::kFrameShardState, std::string(64, 'y'));
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
  std::string framed = gcp::frame(gcp::kFrameShardState, "p");
  for (std::size_t i = 0; i < 8; ++i)
    framed[12 + i] = static_cast<char>(i == 0 ? 0xf8 : 0xff);
  EXPECT_THROW(gcp::unframe(framed, gcp::kFrameShardState),
               std::runtime_error);
}

TEST(CheckpointFrame, RejectsWrongKindAndBadMagic) {
  const std::string framed = gcp::frame(gcp::kFrameShardState, "p");
  EXPECT_THROW(gcp::unframe(framed, gcp::kFrameShardState + 1),
               std::runtime_error);
  std::string bad = framed;
  bad[0] = static_cast<char>(bad[0] ^ 0xff);
  EXPECT_THROW(gcp::unframe(bad, gcp::kFrameShardState), std::runtime_error);
}

TEST(CheckpointFile, AtomicWriteCreatesParentsAndRoundTrips) {
  const std::string dir = ::testing::TempDir() + "gdelay_ckpt_test/nested";
  const std::string path = dir + "/state.ckpt";
  const std::string bytes = gcp::frame(gcp::kFrameShardState, "abc");

  gcp::write_file_atomic(path, bytes);  // parents did not exist
  auto back = gcp::read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);

  EXPECT_TRUE(gcp::remove_file(path));
  EXPECT_FALSE(gcp::remove_file(path));
  EXPECT_FALSE(gcp::read_file(path).has_value());
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzing of the checkpoint parsers
// ---------------------------------------------------------------------------

TEST(CheckpointFuzz, SeededMutationsThrowOrRoundTrip) {
  // A real RecordAccumulator payload: u32 kind, u64 width, u64 unit
  // count, the units, u64 value count, the values.
  gcp::RecordAccumulator src(3);
  Rng values(9);
  for (std::uint64_t u = 0; u < 17; ++u) {
    const double row[3] = {values.gaussian(), values.uniform(), -1.0};
    src.add(3 * u, row);
  }
  ByteWriter w;
  src.save(w);
  const std::string payload = w.take();
  const std::size_t fields[3] = {4, 12, 20 + 8 * src.size()};
  const std::uint64_t specials[] = {
      0, 1, 2, 3, 16, 17, 18, 50, 51, 52, std::uint64_t{1} << 32,
      (std::uint64_t{1} << 61) + 1, std::uint64_t{1} << 63, ~std::uint64_t{0}};

  // Each mutant travels inside a valid frame, so unframe() hands it to
  // the parser, which must throw std::runtime_error or load a state whose
  // save() is exactly the bytes it consumed.
  std::size_t loaded = 0, rejected = 0;
  const auto check = [&](const std::string& mutant) {
    const std::string body = gcp::unframe(
        gcp::frame(gcp::kFrameShardState, mutant), gcp::kFrameShardState);
    ByteReader r(body);
    gcp::RecordAccumulator acc(3);
    try {
      acc.load(r);
    } catch (const std::runtime_error&) {
      ++rejected;
      return;
    }
    ++loaded;
    ByteWriter back;
    acc.save(back);
    EXPECT_EQ(back.bytes(), body.substr(0, body.size() - r.remaining()));
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
  const std::string framed = gcp::frame(gcp::kFrameShardState, payload);
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
  // The shard states a stopped campaign leaves (2 shards x 20 units,
  // stopped after 10 each), mutated in their outer fields and in their
  // bytes, re-framed so the checksum holds, and resumed. Each resume must
  // throw std::runtime_error or complete: a std::logic_error (a unit run
  // twice, a merge out of unit order), a crash or a hang means the loader
  // let a bad state through.
  const gcp::CampaignSpec spec = leave_checkpoints("gdelay_campaign_fuzz");
  const std::string states[2] = {shard_state(spec, 0), shard_state(spec, 1)};
  const auto ranges = gcp::plan_shards(kUnits, 2);

  std::size_t resumed = 0, rejected = 0;
  const auto resume = [&](std::size_t shard, const std::string& mutant,
                          const std::string& what) {
    for (std::size_t s = 0; s < 2; ++s)
      write_shard_state(spec, s, s == shard ? mutant : states[s]);
    try {
      EXPECT_TRUE(gcp::run_campaign(spec, make_accs, unit_work).complete)
          << what;
      ++resumed;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "shard " << shard << ", " << what << ": " << e.what();
    }
  };
  const auto overwrite = [&](std::size_t shard, std::size_t at,
                             std::uint64_t v, int n, const char* field) {
    std::string m = states[shard];
    put_le(m, at, v, n);
    resume(shard, m, std::string(field) + " = " + std::to_string(v));
  };

  Rng rng(0x5eed5a4d);
  const std::uint64_t big[] = {std::uint64_t{1} << 32, std::uint64_t{1} << 63,
                               ~std::uint64_t{0}};
  for (std::size_t s = 0; s < 2; ++s) {
    overwrite(s, 0, rng.next_u64(), 8, "fingerprint");
    overwrite(s, 0, gcp::spec_fingerprint(spec) ^ 1, 8, "fingerprint");
    for (std::uint64_t v : {0ull, 1ull, 2ull, 0xffffffffull})
      overwrite(s, kAtShard, v, 4, "shard");
    // Every next_unit from begin - 1 to end + 1 (the last record, one
    // past it and the range ends among them), then huge ones.
    for (std::uint64_t v = ranges[s].begin - 1; v != ranges[s].end + 2; ++v)
      overwrite(s, kAtNextUnit, v, 8, "next_unit");
    for (std::uint64_t v : big) overwrite(s, kAtNextUnit, v, 8, "next_unit");
    for (std::uint64_t v : {0ull, 1ull, 2ull, 0x80ull, 0xffull}) {
      overwrite(s, kAtResumed, v, 1, "resumed");
      overwrite(s, kAtComplete, v, 1, "complete");
    }
    for (std::uint64_t v : {0ull, 1ull, 3ull, 0xffffffffull})
      overwrite(s, kAtCount, v, 4, "accumulator count");
  }
  constexpr int kMutants = 200;
  for (int i = 0; i < kMutants; ++i) {  // byte flips anywhere
    const std::size_t s = rng.below(2);
    std::string m = states[s];
    const std::uint64_t flips = 1 + rng.below(4);
    for (std::uint64_t f = 0; f < flips; ++f)
      m[rng.below(m.size())] ^= static_cast<char>(1 + rng.below(255));
    resume(s, m, "byte flips " + std::to_string(i));
  }
  for (int i = 0; i < kMutants / 2; ++i) {  // truncations
    const std::size_t s = rng.below(2);
    resume(s, states[s].substr(0, rng.below(states[s].size())),
           "truncation " + std::to_string(i));
  }
  EXPECT_GT(resumed, 0u);
  EXPECT_GT(rejected, 0u);
  gcp::remove_checkpoints(spec);
}
