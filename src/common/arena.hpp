// Allocation provenance for the benchmark stamp: the simulator allocates
// from the heap only.
#pragma once

namespace mcm::common {

// The benchmark stamp (perfbench/src/main.cpp) is the only caller.
[[nodiscard]] constexpr bool arena_enabled() { return false; }

}  // namespace mcm::common
