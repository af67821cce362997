// Profiling purity: turning the self-profiler on must not change a single
// byte of the simulation's exported results, at one worker or several. The
// profiler only ever reads clocks and writes its own thread-local spools, so
// any divergence here means instrumentation leaked into simulation state.
#include <gtest/gtest.h>

#include <string>

#include "core/experiments.hpp"
#include "core/frame_simulator.hpp"
#include "core/result_export.hpp"
#include "obs/json.hpp"
#include "obs/prof.hpp"

namespace mcm::core {
namespace {

std::string run_exported(unsigned threads, bool profile) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.usecase.level = video::H264Level::k31;
  cfg.base.channels = 4;  // enough channels for 4 real workers
  cfg.sim.sim_threads = threads;
  cfg.sim.profile = profile;
  const FrameSimResult result = FrameSimulator(cfg.sim).run(cfg.base, cfg.usecase);
  obs::JsonValue root = obs::JsonValue::object();
  export_config(root["config"], cfg.base, cfg.usecase);
  export_result(root["point"], result);
  return root.dump_string();
}

class ProfPurityTest : public ::testing::Test {
 protected:
  void SetUp() override { (void)obs::prof::collect(/*reset=*/true); }
  void TearDown() override {
    // FrameSimOptions::profile latches the global enable; clear it so later
    // tests in this binary run unprofiled.
    obs::prof::set_enabled(false);
    (void)obs::prof::collect(/*reset=*/true);
  }
};

TEST_F(ProfPurityTest, ReportByteIdenticalSingleWorker) {
  const std::string off = run_exported(1, false);
  obs::prof::set_enabled(false);
  (void)obs::prof::collect(true);
  const std::string on = run_exported(1, true);
  EXPECT_EQ(off, on);

  const obs::prof::ProfileReport rep = obs::prof::collect(true);
  EXPECT_NE(rep.find("sim/run"), nullptr);
  EXPECT_NE(rep.find("engine/w0/feed"), nullptr);
}

TEST_F(ProfPurityTest, ReportByteIdenticalFourWorkers) {
  const std::string off = run_exported(4, false);
  obs::prof::set_enabled(false);
  (void)obs::prof::collect(true);
  const std::string on = run_exported(4, true);
  EXPECT_EQ(off, on);

  // All four workers must have reported their per-worker phases.
  const obs::prof::ProfileReport rep = obs::prof::collect(true);
  EXPECT_NE(rep.find("sim/run"), nullptr);
  EXPECT_NE(rep.find("engine/w0/feed"), nullptr);
  EXPECT_NE(rep.find("engine/w3/feed"), nullptr);
  EXPECT_NE(rep.find("engine/w3/retired"), nullptr);
}

TEST_F(ProfPurityTest, ProfiledRunsMatchAcrossThreadCounts) {
  // Determinism and purity combined: profiled 1-worker == profiled 4-worker.
  const std::string t1 = run_exported(1, true);
  obs::prof::set_enabled(false);
  (void)obs::prof::collect(true);
  const std::string t4 = run_exported(4, true);
  EXPECT_EQ(t1, t4);
}

TEST_F(ProfPurityTest, ConcurrentRunTalliesFeedAndDrainPerStage) {
  // The sequential feed's per-stage sim/feed and sim/drain tallies are how
  // a profiled kConcurrent run splits its engine time from finalize.
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.usecase.level = video::H264Level::k31;
  cfg.base.channels = 2;
  cfg.sim.mode = ExecutionMode::kConcurrent;
  cfg.sim.profile = true;
  const FrameSimResult result = FrameSimulator(cfg.sim).run(cfg.base, cfg.usecase);

  const obs::prof::ProfileReport rep = obs::prof::collect(true);
  const std::uint64_t stages = result.stage_results.size() - 2;  // two paced
  for (const char* name : {"sim/feed", "sim/drain"}) {
    const obs::prof::ProfilePhase* ph = rep.find(name);
    ASSERT_NE(ph, nullptr) << name;
    EXPECT_GT(ph->wall_ns, 0) << name;
    EXPECT_EQ(ph->calls, stages) << name;
  }
  EXPECT_NE(rep.find("sim/finalize"), nullptr);
}

}  // namespace
}  // namespace mcm::core
