// Campaign orchestration: sharding, per-unit substreams, checkpoints,
// merges. The headline contract under test is determinism — the merged
// result is bit-identical for ANY shard count, ANY execution mode
// (serial / thread) and ANY resume point — plus the guard rails around
// it: checkpoints from a different spec or topology, corrupt checkpoint
// files and swapped shard files are rejected, the frame layer refuses
// truncated or bit-flipped bytes outright, and the RecordAccumulator
// restores unit order across merges so floating-point reductions stay
// associative by construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
  auto& summary = dynamic_cast<gcp::RecordAccumulator&>(*accs[0]);
  auto& extremes = dynamic_cast<gcp::RecordAccumulator&>(*accs[1]);
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

TEST(RecordAccumulator, MergeRestoresGlobalUnitOrder) {
  gcp::RecordAccumulator a(1), b(1);
  for (std::uint64_t u : {0ull, 2ull, 4ull}) {
    const double v = 10.0 + static_cast<double>(u);
    a.add(u, &v);
  }
  for (std::uint64_t u : {1ull, 3ull}) {
    const double v = 10.0 + static_cast<double>(u);
    b.add(u, &v);
  }
  a.merge_from(b);
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.unit_at(i), i);  // merge-sorted back to 0,1,2,3,4
    EXPECT_EQ(a.values_at(i)[0], 10.0 + static_cast<double>(i));
  }
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

// ---------------------------------------------------------------------------
// Checkpoint frames (envelope + checksum + atomic files)
// ---------------------------------------------------------------------------

TEST(CheckpointFrame, RoundTripsPayload) {
  const std::string payload = "campaign shard state bytes \x00\x01\x7f";
  const std::string framed = gcp::frame(gcp::kFrameShardState, payload);
  EXPECT_EQ(gcp::unframe(framed, gcp::kFrameShardState), payload);
}

TEST(CheckpointFrame, RejectsBitFlipAnywhereInPayload) {
  const std::string payload(256, 'x');
  std::string framed = gcp::frame(gcp::kFrameShardState, payload);
  // Flip one payload bit: the FNV checksum must catch it.
  framed[20] = static_cast<char>(framed[20] ^ 0x10);
  EXPECT_THROW(gcp::unframe(framed, gcp::kFrameShardState),
               std::runtime_error);
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
