// Shared helpers for the benchmark binaries: optional CSV export and the
// machine-readable run report. When the MCM_CSV_DIR environment variable
// names a directory, each figure bench also writes its data series there as
// <name>.csv for external plotting. Every bench additionally funnels its
// results through obs::RunReport, written as <name>.report.json (to
// MCM_REPORT_DIR when set, the working directory otherwise; MCM_REPORT_DIR=off
// disables it).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "common/csv.hpp"
#include "exec/thread_pool.hpp"
#include "obs/run_report.hpp"

namespace mcm::benchutil {

/// Requested worker-thread count for parallel sweeps: `--threads N` on the
/// command line wins; 0 means "auto" (the pool then applies MCM_THREADS or
/// hardware_concurrency).
[[nodiscard]] inline unsigned thread_request(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      return static_cast<unsigned>(std::strtoul(argv[i + 1], nullptr, 10));
    }
  }
  return 0;
}

/// Stamp the resolved worker count into the report config so perf
/// trajectories across runs are attributable to the pool size used.
inline void stamp_threads(obs::RunReport& report, unsigned requested) {
  report.config()["threads"] =
      exec::ThreadPool::resolve_thread_count(requested);
}

/// Returns a CSV writer bound to $MCM_CSV_DIR/<name>.csv, or nullptr when
/// the variable is unset or the file cannot be created.
struct CsvSink {
  std::ofstream file;
  std::unique_ptr<CsvWriter> writer;

  [[nodiscard]] bool active() const { return writer != nullptr; }
  [[nodiscard]] CsvWriter& csv() { return *writer; }
};

[[nodiscard]] inline CsvSink open_csv(const std::string& name) {
  CsvSink sink;
  const char* dir = std::getenv("MCM_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return sink;
  sink.file.open(std::string(dir) + "/" + name + ".csv");
  if (sink.file) {
    sink.writer = std::make_unique<CsvWriter>(sink.file);
  }
  return sink;
}

/// Write `report` to its default destination and note the path on stdout.
/// Benches call this last so the JSON sits next to the printed table.
inline void write_report(const obs::RunReport& report) {
  const std::string path = report.write_default();
  if (!path.empty()) {
    std::printf("[run report: %s]\n", path.c_str());
  } else if (!report.default_path().empty()) {
    std::fprintf(stderr, "cannot write run report %s\n",
                 report.default_path().c_str());
  }
}

}  // namespace mcm::benchutil
