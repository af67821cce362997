// The channel-sharded engine replaying the memoized stream is the
// kStateMachine path; the sequential feed loop fed by live stage sources is
// the executable specification. Both must produce byte-identical exported
// run reports across schedulers, page policies, channel counts, and seeds —
// the contract that makes the stream cache and the sharded engine pure
// performance changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/experiments.hpp"
#include "core/frame_simulator.hpp"
#include "core/result_export.hpp"
#include "load/usecase_sources.hpp"
#include "obs/json.hpp"

namespace mcm::core {
namespace {

struct Combo {
  const char* tag;
  ctrl::SchedulerPolicy scheduler;
  ctrl::PagePolicy page_policy;
  std::uint32_t channels;
  std::uint64_t seed;
};

/// The point through the sequential feed loop, each frame's stages built
/// live by load::build_stage_sources (no stream cache, no sharded engine).
FrameSimResult run_live_sequential(const ExperimentConfig& cfg) {
  const video::UseCaseModel model(cfg.usecase);
  const video::SurfaceLayout layout(model, cfg.base.stripe_alignment());
  load::LoadOptions load = cfg.sim.load;
  load.burst_bytes = cfg.base.device.org.bytes_per_burst();
  load.chunk_bytes = std::max(load.chunk_bytes, load.burst_bytes);
  multichannel::MemorySystem sys(cfg.base);
  const ShardedRunOutput out = run_sequential_frames(
      sys, static_cast<std::size_t>(cfg.sim.frames),
      [&](std::size_t) {
        std::vector<FeedSource> stages;
        for (auto& src : load::build_stage_sources(model, layout, load)) {
          stages.push_back({std::move(src)});
        }
        return stages;
      },
      model.frame_period());
  return assemble_result(sys, out, model.frame_period(),
                         model.total_mb_per_second() * 1e6,
                         cfg.sim.processing_margin);
}

std::string run_exported(const Combo& combo, bool live_sequential) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.base.channels = combo.channels;
  cfg.base.controller.scheduler = combo.scheduler;
  cfg.base.controller.page_policy = combo.page_policy;
  cfg.usecase.level = video::H264Level::k31;
  cfg.sim.load.seed = combo.seed;
  cfg.sim.sim_threads = 1;

  const FrameSimResult result =
      live_sequential ? run_live_sequential(cfg)
                      : FrameSimulator(cfg.sim).run(cfg.base, cfg.usecase);
  obs::JsonValue root = obs::JsonValue::object();
  export_config(root["config"], cfg.base, cfg.usecase);
  export_result(root["point"], result);
  return root.dump_string();
}

class ShardedEquivalence : public ::testing::TestWithParam<Combo> {};

TEST_P(ShardedEquivalence, ReportBytesMatchLegacyFeed) {
  const Combo& combo = GetParam();
  const std::string sharded = run_exported(combo, /*live_sequential=*/false);
  const std::string legacy = run_exported(combo, /*live_sequential=*/true);
  EXPECT_EQ(sharded, legacy) << combo.tag;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ShardedEquivalence,
    ::testing::Values(
        Combo{"frfcfs_open_4ch", ctrl::SchedulerPolicy::kFrFcfs,
              ctrl::PagePolicy::kOpen, 4, 1},
        Combo{"fcfs_open_4ch", ctrl::SchedulerPolicy::kFcfs,
              ctrl::PagePolicy::kOpen, 4, 1},
        Combo{"frfcfs_closed_2ch", ctrl::SchedulerPolicy::kFrFcfs,
              ctrl::PagePolicy::kClosed, 2, 1},
        Combo{"frfcfs_timeout_8ch", ctrl::SchedulerPolicy::kFrFcfs,
              ctrl::PagePolicy::kTimeout, 8, 1},
        Combo{"fcfs_closed_1ch", ctrl::SchedulerPolicy::kFcfs,
              ctrl::PagePolicy::kClosed, 1, 1},
        Combo{"frfcfs_open_8ch_seed7", ctrl::SchedulerPolicy::kFrFcfs,
              ctrl::PagePolicy::kOpen, 8, 7}),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return info.param.tag;
    });

}  // namespace
}  // namespace mcm::core
