// Serialize / merge / resume contracts of the measurement sinks — the
// foundation of the campaign orchestrator's determinism guarantee.
//
// Every checkpointable sink must round-trip byte-exactly
// (save(load(save(x))) == save(x)), resume mid-stream at ANY chunk seam
// to a state byte-identical with the uninterrupted run, and (for the
// accumulator sinks) merge split runs into the single-pass result. The
// frame layer below the sinks must reject truncated or bit-flipped
// checkpoints outright — a corrupt file throws, it never deserializes
// into plausible state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "measure/delay_meter.h"
#include "measure/eye.h"
#include "measure/jitter.h"
#include "measure/sinks.h"
#include "signal/edges.h"
#include "signal/pattern.h"
#include "signal/synth.h"
#include "signal/waveform.h"
#include "util/rng.h"
#include "util/serde.h"

namespace gm = gdelay::meas;
namespace gs = gdelay::sig;
namespace gcp = gdelay::campaign;
using gdelay::util::ByteReader;
using gdelay::util::ByteWriter;
using gdelay::util::Rng;

namespace {

// The seams a resumed sink must be invariant under: sample by sample, an
// awkward prime, the block unit, a big chunk.
const std::size_t kSeams[] = {1, 7, 64, 4096};

gs::SynthConfig wave_config() {
  gs::SynthConfig cfg;
  cfg.rate_gbps = 6.4;
  cfg.rise_time_ps = 30.0;
  cfg.dt_ps = 0.25;
  cfg.rj_sigma_ps = 1.1;
  cfg.dj_pp_ps = 3.0;
  return cfg;
}

// Same pattern length and grid for every seed: only the jitter draws
// differ, so two waves share (t0, dt, n) and sinks fed either one carry
// identical positional state — merges then compare byte for byte.
gs::Waveform make_wave(std::uint64_t seed) {
  Rng rng(seed);
  return gs::synthesize_nrz(gs::prbs(7, 96, 1), wave_config(), &rng).wf;
}

std::string state_of(const gm::ISampleSink& s) {
  ByteWriter w;
  s.save_state(w);
  return w.take();
}

void load_from(gm::ISampleSink& s, const std::string& bytes) {
  ByteReader r(bytes);
  s.load_state(r);
}

void feed(gm::ISampleSink& s, const gs::Waveform& wf, std::size_t chunk,
          std::size_t from, std::size_t to) {
  const double* p = wf.samples().data();
  for (std::size_t o = from; o < to; o += chunk)
    s.consume(p + o, std::min(chunk, to - o));
}

void feed_all(gm::ISampleSink& s, const gs::Waveform& wf,
              std::size_t chunk = 4096) {
  s.begin(wf.t0_ps(), wf.dt_ps(), wf.size());
  feed(s, wf, chunk, 0, wf.size());
  s.finish();
}

using SinkFactory = std::function<std::unique_ptr<gm::ISampleSink>()>;

struct NamedFactory {
  const char* name;
  SinkFactory make;
};

// One same-configured factory per sink class (the DelayMeterSink needs a
// live reference and gets its own tests below).
std::vector<NamedFactory> sink_factories() {
  return {
      {"capture",
       [] { return std::make_unique<gm::WaveformCaptureSink>(); }},
      {"eye",
       [] {
         return std::make_unique<gm::EyeSink>(
             gm::EyeDiagram(wave_config().unit_interval_ps(), -0.5, 0.5, 64,
                            24),
             0.0, 400.0);
       }},
      {"level_histogram",
       [] {
         return std::make_unique<gm::LevelHistogramSink>(-0.5, 0.5, 48,
                                                         400.0);
       }},
      {"edge",
       [] {
         return std::make_unique<gm::EdgeSink>(gs::EdgeExtractOptions{},
                                               400.0);
       }},
      {"jitter",
       [] {
         return std::make_unique<gm::JitterSink>(
             wave_config().unit_interval_ps());
       }},
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// Byte-exact round trips
// ---------------------------------------------------------------------------

TEST(SinkCheckpoint, SaveLoadSaveIsIdentity) {
  const gs::Waveform wf = make_wave(501);
  for (const auto& f : sink_factories()) {
    auto a = f.make();
    a->begin(wf.t0_ps(), wf.dt_ps(), wf.size());
    feed(*a, wf, 64, 0, wf.size() / 2);  // mid-stream, seam state live
    const std::string s1 = state_of(*a);

    auto b = f.make();
    load_from(*b, s1);
    EXPECT_EQ(state_of(*b), s1) << f.name;
  }
}

TEST(SinkCheckpoint, ResumeMatchesUninterruptedAtAnySeam) {
  const gs::Waveform wf = make_wave(502);
  for (const auto& f : sink_factories()) {
    for (std::size_t chunk : kSeams) {
      auto whole = f.make();
      feed_all(*whole, wf, chunk);

      // Cut deliberately NOT on a chunk boundary: the saved state must
      // carry everything that spans the seam (backscan window, sample
      // clock), not rely on aligned consumption.
      const std::size_t cut = wf.size() / 2 + 3;
      auto a = f.make();
      a->begin(wf.t0_ps(), wf.dt_ps(), wf.size());
      feed(*a, wf, chunk, 0, cut);
      const std::string ckpt = state_of(*a);

      auto b = f.make();
      load_from(*b, ckpt);
      feed(*b, wf, chunk, cut, wf.size());
      b->finish();

      EXPECT_EQ(state_of(*b), state_of(*whole))
          << f.name << " chunk " << chunk;
    }
  }
}

TEST(SinkCheckpoint, DelayMeterResumesAgainstLiveReference) {
  const gs::Waveform ref_wf = make_wave(601);
  const gs::Waveform out_wf = make_wave(602);
  gm::EdgeSink ref = gm::DelayMeterSink::reference_sink();
  feed_all(ref, ref_wf);

  for (std::size_t chunk : kSeams) {
    gm::DelayMeterSink whole(ref);
    feed_all(whole, out_wf, chunk);

    const std::size_t cut = out_wf.size() / 2 + 3;
    gm::DelayMeterSink a(ref);
    a.begin(out_wf.t0_ps(), out_wf.dt_ps(), out_wf.size());
    feed(a, out_wf, chunk, 0, cut);
    const std::string ckpt = state_of(a);

    gm::DelayMeterSink b(ref);
    load_from(b, ckpt);
    feed(b, out_wf, chunk, cut, out_wf.size());
    b.finish();

    EXPECT_EQ(state_of(b), state_of(whole)) << "chunk " << chunk;
    EXPECT_EQ(b.result().n_edges, whole.result().n_edges);
    EXPECT_EQ(std::memcmp(&b.result().mean_ps, &whole.result().mean_ps,
                          sizeof(double)),
              0);
  }
}

// ---------------------------------------------------------------------------
// Merge of split runs == single pass
// ---------------------------------------------------------------------------

TEST(SinkMerge, EyeCountsAddAcrossUnits) {
  const gs::Waveform wf0 = make_wave(701);
  const gs::Waveform wf1 = make_wave(702);
  auto make = sink_factories()[1].make;

  auto single = make();  // one sink sees unit 0 then unit 1
  feed_all(*single, wf0);
  feed_all(*single, wf1);

  auto a = make();
  auto b = make();
  feed_all(*a, wf0);
  feed_all(*b, wf1);
  a->merge_from(*b);

  EXPECT_EQ(state_of(*a), state_of(*single));
}

TEST(SinkMerge, HistogramCountsAddAcrossUnits) {
  const gs::Waveform wf0 = make_wave(703);
  const gs::Waveform wf1 = make_wave(704);
  auto make = sink_factories()[2].make;

  auto single = make();
  feed_all(*single, wf0);
  feed_all(*single, wf1);

  auto a = make();
  auto b = make();
  feed_all(*a, wf0);
  feed_all(*b, wf1);
  a->merge_from(*b);

  EXPECT_EQ(state_of(*a), state_of(*single));
}

TEST(SinkMerge, EdgeListsConcatenateInShardOrder) {
  const gs::Waveform wf0 = make_wave(705);
  const gs::Waveform wf1 = make_wave(706);

  gm::EdgeSink a{gs::EdgeExtractOptions{}, 400.0};
  gm::EdgeSink b{gs::EdgeExtractOptions{}, 400.0};
  feed_all(a, wf0);
  feed_all(b, wf1);
  const std::vector<gs::Edge> ea = a.edges();
  const std::vector<gs::Edge> eb = b.edges();
  ASSERT_GT(ea.size(), 0u);
  ASSERT_GT(eb.size(), 0u);

  a.merge_from(b);
  ASSERT_EQ(a.edges().size(), ea.size() + eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.edges()[i].t_ps, &ea[i].t_ps, sizeof(double)),
              0)
        << "shard-A edge " << i;
  }
  for (std::size_t i = 0; i < eb.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.edges()[ea.size() + i].t_ps, &eb[i].t_ps,
                          sizeof(double)),
              0)
        << "shard-B edge " << i;
  }
}

TEST(SinkMerge, JitterMergeRecomputesOverMergedEdges) {
  const gs::Waveform wf0 = make_wave(707);
  const gs::Waveform wf1 = make_wave(708);
  const double ui = wave_config().unit_interval_ps();

  gm::JitterSink a(ui);
  gm::JitterSink b(ui);
  feed_all(a, wf0);
  feed_all(b, wf1);

  std::vector<double> times;
  for (const auto& e : a.edges()) times.push_back(e.t_ps);
  for (const auto& e : b.edges()) times.push_back(e.t_ps);
  const gm::JitterReport want = gm::analyze_jitter(times, ui);

  a.merge_from(b);
  const gm::JitterReport& got = a.report();
  EXPECT_EQ(got.n_edges, want.n_edges);
  EXPECT_EQ(
      std::memcmp(&got.rj_rms_ps, &want.rj_rms_ps, sizeof(double)), 0);
  EXPECT_EQ(
      std::memcmp(&got.dj_pp_ps, &want.dj_pp_ps, sizeof(double)), 0);
  EXPECT_EQ(
      std::memcmp(&got.tj_pp_ps, &want.tj_pp_ps, sizeof(double)), 0);
}

TEST(SinkMerge, DelayMeterMergesOutputEdgesAgainstMergedReference) {
  // Output == reference per unit, so the merged measurement must see
  // every edge pair at exactly zero delay — any seam artifact or edge
  // misordering in the merge would show up as nonzero spread.
  const gs::Waveform wf0 = make_wave(709);
  const gs::Waveform wf1 = make_wave(710);

  gm::EdgeSink ref_a = gm::DelayMeterSink::reference_sink();
  gm::EdgeSink ref_b = gm::DelayMeterSink::reference_sink();
  feed_all(ref_a, wf0);
  feed_all(ref_b, wf1);
  ref_a.merge_from(ref_b);

  gm::DelayMeterSink out_a(ref_a);
  gm::DelayMeterSink out_b(ref_a);
  feed_all(out_a, wf0);
  feed_all(out_b, wf1);
  out_a.merge_from(out_b);  // recomputes against the merged reference

  EXPECT_EQ(out_a.result().n_edges, ref_a.edges().size());
  EXPECT_EQ(out_a.result().mean_ps, 0.0);
  EXPECT_EQ(out_a.result().stddev_ps, 0.0);
}

TEST(SinkMerge, CaptureRefusesToMerge) {
  // A waveform is a positional recording, not an additive statistic.
  gm::WaveformCaptureSink a, b;
  const gs::Waveform wf = make_wave(711);
  feed_all(a, wf);
  feed_all(b, wf);
  EXPECT_THROW(a.merge_from(b), std::logic_error);
}

TEST(SinkMerge, TypeAndConfigMismatchesAreRejected) {
  const gs::Waveform wf = make_wave(712);
  gm::EyeSink eye(gm::EyeDiagram(156.25, -0.5, 0.5, 64, 24), 0.0, 400.0);
  gm::LevelHistogramSink hist(-0.5, 0.5, 48, 400.0);
  feed_all(eye, wf);
  feed_all(hist, wf);
  EXPECT_THROW(eye.merge_from(hist), std::logic_error);

  // Same type, different settle gate: counts would not be comparable.
  gm::EyeSink other(gm::EyeDiagram(156.25, -0.5, 0.5, 64, 24), 0.0, 800.0);
  feed_all(other, wf);
  EXPECT_THROW(eye.merge_from(other), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Corruption is rejected, never absorbed
// ---------------------------------------------------------------------------

TEST(SinkCheckpoint, KindTagMismatchIsRejected) {
  const gs::Waveform wf = make_wave(801);
  const auto factories = sink_factories();
  // Every sink's state against every OTHER sink's loader.
  for (const auto& src : factories) {
    auto s = src.make();
    feed_all(*s, wf);
    const std::string bytes = state_of(*s);
    for (const auto& dst : factories) {
      if (dst.name == src.name) continue;
      auto d = dst.make();
      EXPECT_THROW(load_from(*d, bytes), std::runtime_error)
          << src.name << " -> " << dst.name;
    }
  }
}

TEST(SinkCheckpoint, TruncatedStateThrowsInsteadOfFabricating) {
  const gs::Waveform wf = make_wave(802);
  for (const auto& f : sink_factories()) {
    auto s = f.make();
    feed_all(*s, wf);
    const std::string bytes = state_of(*s);
    ASSERT_GT(bytes.size(), 8u) << f.name;
    auto d = f.make();
    EXPECT_THROW(load_from(*d, bytes.substr(0, bytes.size() - 3)),
                 std::runtime_error)
        << f.name;
  }
}

namespace {

// Saves a fed `sink`, checks that the f64 at `offset` is `saved` (its
// sample period or UI), and that the state is refused once that field
// is patched to NaN or to -1.
void expect_period_guarded(const char* sink, std::size_t offset,
                           double saved) {
  SinkFactory make;
  for (const auto& f : sink_factories())
    if (std::strcmp(f.name, sink) == 0) make = f.make;
  auto s = make();
  feed_all(*s, make_wave(803));
  const std::string bytes = state_of(*s);
  ASSERT_GE(bytes.size(), offset + 8) << sink;
  ByteReader field(bytes.data() + offset, 8);
  ASSERT_EQ(field.f64(), saved) << sink;
  EXPECT_NO_THROW(load_from(*make(), bytes)) << sink;
  for (double bad : {std::nan(""), -1.0}) {
    ByteWriter w;
    w.f64(bad);
    std::string patched = bytes;
    EXPECT_THROW(load_from(*make(), patched.replace(offset, 8, w.take())),
                 std::runtime_error)
        << sink << " <- " << bad;
  }
}

}  // namespace

// Offsets follow each save_state() layout: a u32 kind tag, then the
// f64 fields in order.
TEST(SinkCheckpoint, CaptureRejectsCorruptDt) {
  expect_period_guarded("capture", 4 + 8, wave_config().dt_ps);  // t0, dt
}

TEST(SinkCheckpoint, EyeRejectsCorruptDt) {
  // phase, settle, t0, dt
  expect_period_guarded("eye", 4 + 3 * 8, wave_config().dt_ps);
}

TEST(SinkCheckpoint, LevelHistogramRejectsCorruptDt) {
  // settle, t0, dt
  expect_period_guarded("level_histogram", 4 + 2 * 8, wave_config().dt_ps);
}

TEST(SinkCheckpoint, EdgeRejectsCorruptDt) {
  // Five f64 options, u64 total, u8 has-extractor, then the extractor's
  // t0 and dt.
  expect_period_guarded("edge", 4 + 5 * 8 + 8 + 1 + 8, wave_config().dt_ps);
}

TEST(SinkCheckpoint, JitterRejectsCorruptUi) {
  expect_period_guarded("jitter", 4, wave_config().unit_interval_ps());
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
