// Seeded input generator for the mixed_random workload. It writes four
// tenant traces with the simulator's trace writers and returns an
// `mcm.workload/v1` spec that replays them. The generator is the
// benchmark's own, so the workload does not depend on the simulator's
// synthetic generators, which may change under it.
#pragma once

#include <cstdint>
#include <string>

#include "workload/spec.hpp"

namespace perfbench {

/// Write the tenant traces for `seed` into directory `dir` (which must
/// exist) and return the spec that replays them on 4 channels with 1 sim
/// worker. `requests` is the total over the four tenants; the split between
/// tenants is fixed, so the work per frame does not depend on the seed.
///
/// Tenants, each in its own partition:
///  - seq_write:   sequential writes (row hits, write bursts);
///  - random_read: reads scattered over a 32 MiB window, far more than the
///                 16 open rows (row misses, FR-FCFS reordering);
///  - strided:     a 32 KiB stride, which keeps one channel and one bank and
///                 changes the row every access (row conflicts), half writes
///                 (read/write turnarounds);
///  - paced_read:  a sequential read stream at a fixed cadence.
[[nodiscard]] mcm::workload::WorkloadSpec write_mixed_tenants(
    const std::string& dir, std::uint64_t seed, std::uint64_t requests);

}  // namespace perfbench
