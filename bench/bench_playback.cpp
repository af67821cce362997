// Extension study: recording vs playback. Decoding does motion
// *compensation* (one reference read per block) instead of motion *search*
// (the paper's factor six x #refs), so playback's execution-memory load is
// ~5-6x below recording: one channel carries playback up to 1080p60, and
// 2160p30 playback needs just two.
#include <cstdio>

#include "core/experiments.hpp"
#include "core/frame_simulator.hpp"
#include "load/playback_sources.hpp"
#include "video/playback.hpp"

int main() {
  using namespace mcm;
  std::printf("RECORDING vs PLAYBACK (400 MHz)\n\n");
  std::printf("%-12s %18s %18s %14s %16s\n", "format", "record [GB/s]",
              "playback [GB/s]", "ratio", "playback 1ch");

  for (const auto level : video::kAllLevels) {
    video::UseCaseParams rec;
    rec.level = level;
    const video::UseCaseModel record(rec);

    video::PlaybackParams pb;
    pb.level = level;
    const video::PlaybackModel playback(pb);

    // Run playback on a single channel: one frame of back-to-back stages.
    auto cfg = core::ExperimentConfig::paper_defaults().base;
    cfg.channels = 1;
    multichannel::MemorySystem sys(cfg);
    const auto out = core::run_sequential_frames(
        sys, 1,
        [&](std::size_t) {
          std::vector<core::FeedSource> stages;
          for (auto& src : load::build_playback_sources(playback)) {
            stages.push_back({std::move(src)});
          }
          return stages;
        },
        playback.frame_period());
    const auto result = core::assemble_result(
        sys, out, playback.frame_period(), playback.total_mb_per_second() * 1e6);

    const auto& spec = video::level_spec(level);
    char fmt[48];
    std::snprintf(fmt, sizeof fmt, "%ux%u@%.0f", spec.resolution.width,
                  spec.resolution.height, spec.fps);
    char verdict[48];
    std::snprintf(verdict, sizeof verdict, "%.1f ms, %.0f mW",
                  result.access_time.ms(), result.total_power_mw);
    std::printf("%-12s %18.2f %18.2f %13.1fx %16s\n", fmt,
                record.total_mb_per_second() / 1000.0,
                playback.total_mb_per_second() / 1000.0,
                record.total_mb_per_second() / playback.total_mb_per_second(),
                verdict);
  }
  std::printf("\nRecording needs the multi-channel organization; playback "
              "(no motion search, no camera chain) rides one channel up to "
              "1080p60 - the asymmetry that motivates per-use-case channel "
              "clusters (paper Section V).\n");
  return 0;
}
