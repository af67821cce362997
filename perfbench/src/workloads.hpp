// The benchmark's four workloads, driven through the simulator's public
// API. Each run is one process and one workload:
//
//   timed run   (trace off): cold iterations until the time budget is
//               spent; end-to-end metrics are medians over iterations.
//   traced run  (trace on):  one untraced iteration, one iteration with
//               spans and the program's profiler on, then per-layer
//               measurements outside that window.
//
// Every simulated result is hashed (host-only stamps such as thread counts
// are never part of it) and returned as an operation; the caller compares
// the digests with the pinned ones.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool quick = false;          // small inputs, for the benchmark's own tests
  std::string work_dir = ".";  // scratch directory for generated inputs
  std::string spans_path;      // traced run: Chrome trace of the spans
};

/// One operation attempted: a grid point or a run, with the digest of its
/// simulated outputs, or the error that stopped it.
struct Op {
  std::string key;
  std::string digest;
  std::string error;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Op> ops;
  std::vector<Metric> metrics;
  mcm::obs::JsonValue info = mcm::obs::JsonValue::object();
};

/// Run one workload as `opt` says. Throws std::invalid_argument for an
/// unknown workload name.
[[nodiscard]] Report run_workload(const Options& opt);

/// Digest of one iteration of the workload, without timing (pinning).
[[nodiscard]] std::vector<Op> pin_workload(const Options& opt);

}  // namespace perfbench
