#include "video/playback.hpp"

#include <gtest/gtest.h>

#include "core/frame_simulator.hpp"
#include "load/playback_sources.hpp"
#include "video/usecase.hpp"

namespace mcm::video {
namespace {

PlaybackModel model_for(H264Level level) {
  PlaybackParams p;
  p.level = level;
  return PlaybackModel(p);
}

TEST(Playback, SevenStages) {
  const auto m = model_for(H264Level::k40);
  EXPECT_EQ(m.stages().size(), 7u);
}

TEST(Playback, OrderOfMagnitudeBelowRecording) {
  for (const auto level : kAllLevels) {
    UseCaseParams rp;
    rp.level = level;
    const UseCaseModel record(rp);
    const auto playback = model_for(level);
    const double ratio =
        record.total_mb_per_second() / playback.total_mb_per_second();
    EXPECT_GT(ratio, 5.0) << level_spec(level).name;
    EXPECT_LT(ratio, 20.0) << level_spec(level).name;
  }
}

TEST(Playback, DecoderDominates) {
  const auto m = model_for(H264Level::k40);
  double decoder = 0, largest_other = 0;
  for (const auto& s : m.stages()) {
    if (s.id == PlaybackStageId::kVideoDecoder) {
      decoder = s.total_bits();
    } else {
      largest_other = std::max(largest_other, s.total_bits());
    }
  }
  EXPECT_GT(decoder, largest_other);
}

TEST(Playback, McFactorScalesDecoderReads) {
  PlaybackParams lo;
  lo.level = H264Level::k40;
  lo.mc_read_factor = 1.0;
  PlaybackParams hi = lo;
  hi.mc_read_factor = 2.0;
  EXPECT_GT(PlaybackModel(hi).total_bits_per_frame(),
            PlaybackModel(lo).total_bits_per_frame());
}

TEST(Playback, SourcesMatchModelVolumes) {
  const auto m = model_for(H264Level::k31);
  const auto sources = load::build_playback_sources(m);
  ASSERT_EQ(sources.size(), m.stages().size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const double want = m.stages()[i].total_bits() / 8.0;
    EXPECT_NEAR(static_cast<double>(sources[i]->total_bytes()), want, 96.0)
        << m.stages()[i].name;
  }
}

TEST(Playback, SingleChannelServes1080pPlayback) {
  auto cfg = multichannel::SystemConfig{};
  cfg.channels = 1;
  cfg.controller.queue_depth = 8;
  const auto m = model_for(H264Level::k40);
  multichannel::MemorySystem sys(cfg);
  const auto out = core::run_sequential_frames(
      sys, 1,
      [&](std::size_t) {
        std::vector<core::FeedSource> stages;
        for (auto& src : load::build_playback_sources(m)) {
          stages.push_back({std::move(src)});
        }
        return stages;
      },
      m.frame_period());
  const auto r = core::assemble_result(sys, out, m.frame_period(),
                                       m.total_mb_per_second() * 1e6);
  EXPECT_LT(r.access_time, m.frame_period());
  EXPECT_GT(r.total_power_mw, 0.0);
  EXPECT_EQ(r.stage_results.size(), m.stages().size());
  // Volume served matches the model.
  EXPECT_NEAR(static_cast<double>(r.bytes_per_frame), m.total_bits_per_frame() / 8.0,
              m.total_bits_per_frame() / 8.0 * 0.01);
}

TEST(Playback, UhdPlaybackStillNearOneChannel) {
  const auto m = model_for(H264Level::k52);
  // 2160p30 playback demand sits below two channels' peak.
  EXPECT_LT(m.total_mb_per_second() * 1e6, 2 * 3.2e9);
}

}  // namespace
}  // namespace mcm::video
