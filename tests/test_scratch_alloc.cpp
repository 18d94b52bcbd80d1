// Warmed block processing allocates nothing.
//
// util::ScratchBuffer leases come from a per-thread pool that keeps its
// capacity, and analog::LaneArray holds every width the library runs
// inline, so once a device has run one block of a given shape, further
// blocks of that shape or shorter make no heap allocation (util/scratch.h,
// core/batch.h). Each case runs its block once to warm the pool, then
// counts the allocations of ten more rounds. The counting operator new
// comes from bench/memtrack.h, which replaces the global one, so these
// tests are their own executable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "bench/memtrack.h"
#include "core/channel.h"
#include "core/fine_delay.h"
#include "core/jitter_injector.h"
#include "util/rng.h"

namespace gc = gdelay::core;
using gdelay::util::Rng;

namespace {

constexpr std::size_t kBlock = 1024;
constexpr std::size_t kShort = 961;  // the last block of a 62,401-sample run
constexpr double kDt = 0.25;

// Allocations made by ten rounds of `block()` after one warm-up round.
template <typename Block>
std::size_t allocs_after_warmup(Block block) {
  block();
  const std::size_t before = gdelay::bench::heap_snapshot().alloc_count;
  for (int r = 0; r < 10; ++r) block();
  return gdelay::bench::heap_snapshot().alloc_count - before;
}

std::vector<double> square(std::size_t n, std::size_t w = 1) {
  std::vector<double> v(n * w);
  for (std::size_t i = 0; i < n * w; ++i) v[i] = (i / w / 40) % 2 ? 0.4 : -0.4;
  return v;
}

}  // namespace

TEST(ScratchAlloc, WarmedFineLineBlocksAllocateNothing) {
  gc::FineDelayLine line(gc::FineDelayConfig{}, Rng(4));
  line.set_vctrl(0.75);
  const auto in = square(kBlock);
  std::vector<double> vctrl(kBlock), out(kBlock);
  for (std::size_t i = 0; i < kBlock; ++i)
    vctrl[i] = 0.75 + 0.5 * std::sin(0.01 * static_cast<double>(i));
  EXPECT_EQ(allocs_after_warmup([&] {
              line.process_block(in.data(), out.data(), kBlock, kDt);
            }),
            0u)
      << "held Vctrl";
  EXPECT_EQ(allocs_after_warmup([&] {
              line.process_block(in.data(), vctrl.data(), out.data(), kBlock,
                                 kDt);
            }),
            0u)
      << "per-sample Vctrl";
  EXPECT_EQ(allocs_after_warmup([&] {
              line.process_block(in.data(), vctrl.data(), out.data(), kBlock,
                                 kDt);
              line.process_block(in.data(), vctrl.data(), out.data(), kShort,
                                 kDt);
            }),
            0u)
      << "full block, then a short one";
}

TEST(ScratchAlloc, WarmedChannelAndInjectorBlocksAllocateNothing) {
  const auto in = square(kBlock);
  std::vector<double> out(kBlock);
  gc::VariableDelayChannel ch(gc::ChannelConfig::prototype(), Rng(5));
  ch.set_vctrl(0.75);
  EXPECT_EQ(allocs_after_warmup([&] {
              ch.process_block(in.data(), out.data(), kBlock, kDt);
              ch.process_block(in.data(), out.data(), kShort, kDt);
            }),
            0u)
      << "channel";
  gc::JitterInjectorConfig cfg;
  cfg.sj_pp_v = 0.2;
  cfg.sj_freq_ghz = 0.05;
  gc::JitterInjector inj(cfg, Rng(61));
  EXPECT_EQ(allocs_after_warmup([&] {
              inj.process_block(in.data(), out.data(), kBlock, kDt);
              inj.process_block(in.data(), out.data(), kShort, kDt);
            }),
            0u)
      << "jitter injector";
}

TEST(ScratchAlloc, WarmedFourWideChannelLanePassAllocatesNothing) {
  constexpr std::size_t kW = 4;
  std::vector<gc::VariableDelayChannel> chans;
  for (std::size_t s = 0; s < kW; ++s) {
    chans.emplace_back(gc::ChannelConfig::prototype(), Rng(5));
    chans.back().fork_noise(s);
    chans.back().select_tap(static_cast<int>(s));
  }
  std::vector<gc::VariableDelayChannel*> lanes;
  for (auto& c : chans) lanes.push_back(&c);
  const auto in = square(kBlock, kW);
  std::vector<double> out(kBlock * kW);
  EXPECT_EQ(allocs_after_warmup([&] {
              gc::VariableDelayChannel::process_lanes(
                  lanes.data(), kW, in.data(), out.data(), kBlock, kDt);
            }),
            0u);
}
