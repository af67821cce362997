// The sequential feed run as a generic stage runner: one frame of ordered
// stage sources (barrier between them, as in the Fig. 1 state machine) with
// the frame period as the power window - how playback and custom workloads
// drive it.
#include <gtest/gtest.h>

#include "core/frame_simulator.hpp"
#include "load/multi_stream_source.hpp"

namespace mcm::core {
namespace {

std::unique_ptr<load::TrafficSource> stream(std::uint64_t base, std::uint64_t bytes,
                                            bool is_write, std::uint16_t id) {
  return std::make_unique<load::MultiStreamSource>(
      "stream",
      std::vector<load::StreamSpec>{{base, bytes, 0, is_write, id}});
}

multichannel::SystemConfig two_channels() {
  multichannel::SystemConfig cfg;
  cfg.channels = 2;
  return cfg;
}

/// One frame of `stages` on a fresh system, finalized at
/// max(access time, window_hint).
FrameSimResult run_stages(std::vector<FeedSource> stages, Time window_hint) {
  multichannel::MemorySystem sys(two_channels());
  const ShardedRunOutput out = run_sequential_frames(
      sys, 1, [&](std::size_t) { return std::move(stages); }, window_hint);
  return assemble_result(sys, out, window_hint, 0.0);
}

TEST(SourceRunner, EmptySourceListFinishesInstantly) {
  auto r = run_stages({}, Time::from_ms(1.0));
  EXPECT_EQ(r.access_time, Time::zero());
  EXPECT_EQ(r.bytes_per_frame, 0u);
  EXPECT_TRUE(r.stage_results.empty());
  EXPECT_EQ(r.window, Time::from_ms(1.0));
  // Idle window still burns background power (power-down + refresh + I/O).
  EXPECT_GT(r.total_power_mw, 0.0);
  EXPECT_LT(r.dram_power_mw, 20.0);
}

TEST(SourceRunner, VolumeConserved) {
  std::vector<FeedSource> sources;
  sources.push_back({stream(0, 256 * 1024, false, 0)});
  sources.push_back({stream(1 << 22, 128 * 1024, true, 1)});
  auto r = run_stages(std::move(sources), Time::zero());
  EXPECT_EQ(r.bytes_per_frame, 256u * 1024 + 128 * 1024);
  EXPECT_EQ(r.stats.bytes, r.bytes_per_frame);
  EXPECT_EQ(r.stats.reads, 256u * 1024 / 16);
  EXPECT_EQ(r.stats.writes, 128u * 1024 / 16);
  ASSERT_EQ(r.stage_results.size(), 2u);
  EXPECT_EQ(r.stage_results[0].bytes, 256u * 1024);
  EXPECT_EQ(r.stage_results[1].bytes, 128u * 1024);
}

TEST(SourceRunner, StagesRunInOrder) {
  // Two equal stages: total time is ~2x one stage (barrier between them).
  std::vector<FeedSource> single;
  single.push_back({stream(0, 512 * 1024, false, 0)});
  auto one = run_stages(std::move(single), Time::zero());
  std::vector<FeedSource> pair;
  pair.push_back({stream(0, 512 * 1024, false, 0)});
  pair.push_back({stream(1 << 22, 512 * 1024, false, 1)});
  auto two = run_stages(std::move(pair), Time::zero());
  EXPECT_NEAR(static_cast<double>(two.access_time.ps()),
              2.0 * static_cast<double>(one.access_time.ps()),
              0.15 * static_cast<double>(two.access_time.ps()));
  ASSERT_EQ(two.stage_results.size(), 2u);
  EXPECT_LT(two.stage_results[0].completed, two.stage_results[1].completed);
  EXPECT_EQ(two.stage_results[1].completed, two.access_time);
}

TEST(SourceRunner, WindowHintExtendsAccounting) {
  std::vector<FeedSource> narrow;
  narrow.push_back({stream(0, 64 * 1024, false, 0)});
  auto tight = run_stages(std::move(narrow), Time::zero());
  std::vector<FeedSource> wide_sources;
  wide_sources.push_back({stream(0, 64 * 1024, false, 0)});
  auto wide = run_stages(std::move(wide_sources), Time::from_ms(33.0));
  EXPECT_EQ(tight.access_time, wide.access_time);
  EXPECT_GT(wide.window, tight.window);
  EXPECT_EQ(wide.window, Time::from_ms(33.0));
  // Average power over the long window is far lower (idle tail sleeps).
  EXPECT_LT(wide.dram_power_mw, tight.dram_power_mw);
}

}  // namespace
}  // namespace mcm::core
