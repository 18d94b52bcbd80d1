// Tests for the PRBS / pattern generators and the SerDes stress patterns.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "signal/pattern.h"
#include "signal/synth.h"

namespace gs = gdelay::sig;

TEST(Prbs, RejectsBadOrder) {
  EXPECT_THROW(gs::PrbsGenerator(8), std::invalid_argument);
  EXPECT_THROW(gs::PrbsGenerator(0), std::invalid_argument);
}

TEST(Prbs, Prbs7HasFullPeriod) {
  gs::PrbsGenerator g(7);
  const auto seq = g.take(127 * 2);
  // Period exactly 127: second cycle repeats the first...
  for (std::size_t i = 0; i < 127; ++i) EXPECT_EQ(seq[i], seq[i + 127]);
  // ... and no smaller period divides it (127 is prime: check a few).
  bool shorter = true;
  for (std::size_t p = 1; p < 127 && shorter; ++p) {
    shorter = true;
    for (std::size_t i = 0; i + p < 127; ++i)
      if (seq[i] != seq[i + p]) {
        shorter = false;
        break;
      }
    if (shorter) FAIL() << "period " << p << " repeats";
  }
}

TEST(Prbs, Prbs7Balance) {
  // Maximal-length LFSR: 64 ones and 63 zeros per period.
  const auto seq = gs::prbs(7, 127);
  EXPECT_EQ(gs::popcount(seq), 64u);
}

TEST(Prbs, Prbs7LongestRun) {
  // Longest run in PRBS-n is n (ones) and n-1 (zeros).
  const auto seq = gs::prbs(7, 254);
  EXPECT_EQ(gs::longest_run(seq), 7u);
}

TEST(Prbs, Prbs15Balance) {
  const auto seq = gs::prbs(15, (1u << 15) - 1);
  EXPECT_EQ(gs::popcount(seq), 1u << 14);
}

TEST(Prbs, Prbs15Period) {
  gs::PrbsGenerator g(15);
  EXPECT_EQ(g.period(), (1ull << 15) - 1);
  const auto a = g.take(1000);
  gs::PrbsGenerator h(15);
  for (std::uint64_t i = 0; i < h.period(); ++i) h.next();
  // One full period later the stream must repeat from the start.
  auto wrapped = h.take(1000);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(wrapped[i], a[i]);
}

TEST(Prbs, DifferentSeedsShiftSequence) {
  const auto a = gs::prbs(7, 64, 1);
  const auto b = gs::prbs(7, 64, 2);
  EXPECT_NE(a, b);
}

TEST(Prbs, ZeroSeedIsValid) {
  // All-zero would be absorbing; generator must substitute a valid state.
  const auto seq = gs::prbs(7, 127, 0);
  EXPECT_EQ(gs::popcount(seq), 64u);
}

TEST(Prbs, Prbs31RunsWithoutCollapse) {
  const auto seq = gs::prbs(31, 8192);
  const auto ones = gs::popcount(seq);
  EXPECT_GT(ones, 3500u);
  EXPECT_LT(ones, 4700u);
  EXPECT_LE(gs::longest_run(seq), 31u);
}

TEST(Pattern, Alternating) {
  const auto a = gs::alternating(6, 0);
  EXPECT_EQ(a, (gs::BitPattern{0, 1, 0, 1, 0, 1}));
  const auto b = gs::alternating(4, 1);
  EXPECT_EQ(b, (gs::BitPattern{1, 0, 1, 0}));
  EXPECT_EQ(gs::transition_count(a), 5u);
}

TEST(Pattern, TransitionCountPrbs) {
  // PRBS7: 64 transitions per 127-bit period on the wrapped sequence;
  // a linear window sees 63..64.
  const auto seq = gs::prbs(7, 128);
  const auto t = gs::transition_count(seq);
  EXPECT_GE(t, 60u);
  EXPECT_LE(t, 68u);
}

TEST(Pattern, K285Structure) {
  const auto p = gs::k285(4);
  ASSERT_EQ(p.size(), 40u);
  // Alternating disparity: second codeword is the complement of the first.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(p[static_cast<std::size_t>(i)],
                                         1 - p[static_cast<std::size_t>(i) + 10]);
  // Balanced over a disparity pair.
  EXPECT_EQ(gs::popcount({p.begin(), p.begin() + 20}), 10u);
  // Contains a 5-run (the comma).
  EXPECT_EQ(gs::longest_run(p), 5u);
}

TEST(Pattern, RunLengthStress) {
  const auto p = gs::run_length_stress(64, 8);
  EXPECT_EQ(p.size(), 64u);
  EXPECT_EQ(gs::longest_run(p), 8u);
  // Half the segments toggle at full rate: plenty of transitions.
  EXPECT_GT(gs::transition_count(p), 24u);
  // run = 0 is coerced, not UB.
  EXPECT_EQ(gs::run_length_stress(8, 0).size(), 8u);
}

TEST(Pattern, StressPatternsSynthesize) {
  gs::SynthConfig sc;
  sc.rate_gbps = 6.4;
  EXPECT_NO_THROW(gs::synthesize_nrz(gs::k285(12), sc));
  EXPECT_NO_THROW(gs::synthesize_nrz(gs::run_length_stress(96), sc));
}
