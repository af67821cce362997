// Certification that the sharded engine's worker count is invisible in the
// results: every export must be byte-identical at 1 and 4 workers across
// 200 fuzz scenarios. About 1/6 of the scenarios sample a queue depth of 32
// or more, so deep arbitration scans are covered too.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "verify/differ.hpp"
#include "verify/scenario.hpp"

namespace mcm::verify {
namespace {

/// Scenario worker counts stand in for MCM_SIM_THREADS (run_production
/// passes them straight to the sharded engine).
TEST(WorkerEquivalence, FuzzCasesByteIdenticalAcrossWorkers) {
  constexpr std::uint32_t kDeepQueue = 32;
  mcm::Rng master(2026);
  int deep_cases = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t case_seed = master.next_u64();
    Scenario s = random_scenario(case_seed);
    if (s.queue_depth >= kDeepQueue) ++deep_cases;

    std::string reference;
    for (unsigned workers : {1u, 4u}) {
      s.sim_threads = workers;
      const std::string dump = outcome_to_json(run_production(s)).dump_string();
      if (reference.empty()) {
        reference = dump;
      } else {
        ASSERT_EQ(dump, reference)
            << "case seed 0x" << std::hex << case_seed << std::dec
            << " diverged at workers=" << workers;
      }
    }
  }
  EXPECT_GT(deep_cases, 0);
}

}  // namespace
}  // namespace mcm::verify
