// `mcm.repro/v1` round-trip and replay tests, including the shrunken repro
// committed under tests/verify/repros/ (produced by
// `mcm_fuzz --inject ignore-tras`): loading it must reproduce the
// divergence, and stripping the injected bug must restore agreement.
#include <gtest/gtest.h>

#include <string>

#include "verify/differ.hpp"
#include "verify/scenario.hpp"

namespace mcm::verify {
namespace {

TEST(Repro, JsonRoundTripIsExact) {
  const Scenario s = random_scenario(0x12345);
  const obs::JsonValue doc = scenario_to_json(s);
  std::string error;
  const auto loaded = scenario_from_json(doc, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(*loaded, s);
}

TEST(Repro, JsonRoundTripSurvivesSerializedText) {
  Scenario s = random_scenario(99);
  s.inject = InjectedBug::kIgnoreTwtr;
  const std::string text = scenario_to_json(s).dump_string();
  std::string error;
  const auto doc = obs::json_parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto loaded = scenario_from_json(*doc, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(*loaded, s);
}

TEST(Repro, SaveAndLoadFile) {
  const Scenario s = random_scenario(4242);
  const std::string path = testing::TempDir() + "mcm_repro_roundtrip.json";
  ASSERT_TRUE(save_scenario(s, path));
  std::string error;
  const auto loaded = load_scenario(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(*loaded, s);
}

TEST(Repro, RejectsWrongSchema) {
  std::string error;
  const auto doc = obs::json_parse(R"({"schema": "mcm.repro/v2"})", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_FALSE(scenario_from_json(*doc, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Repro, RejectsZeroQueueDepth) {
  // A zero-depth queue can never accept a request; replaying one must fail
  // at load with the key named, not crash in the feed.
  obs::JsonValue doc = scenario_to_json(random_scenario(7));
  doc["controller"]["queue_depth"] = 0;
  std::string error;
  EXPECT_FALSE(scenario_from_json(doc, &error).has_value());
  EXPECT_NE(error.find("controller.queue_depth"), std::string::npos) << error;
}

TEST(Repro, CommittedIgnoreTrasReproStillDiverges) {
  std::string error;
  const auto loaded =
      load_scenario(std::string(MCM_VERIFY_REPRO_DIR) + "/ignore_tras.json",
                    &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->inject, InjectedBug::kIgnoreTras);
  EXPECT_LE(loaded->total_requests(), 10u) << "repro is no longer minimal";

  // With the injected bug the reference diverges from production...
  EXPECT_TRUE(diff_scenario(*loaded).has_value());

  // ...and with the bug stripped the same scenario agrees, proving the
  // divergence is the injected bug and not the scenario itself.
  Scenario fixed = *loaded;
  fixed.inject = InjectedBug::kNone;
  const auto mismatch = diff_scenario(fixed);
  EXPECT_FALSE(mismatch.has_value()) << *mismatch;
}

}  // namespace
}  // namespace mcm::verify
