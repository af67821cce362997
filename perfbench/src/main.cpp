// perfbench: runs one benchmark workload and prints one JSON document (the
// last line of standard output) with the operations attempted, their
// output digests, the metrics and a machine/build stamp. perfbench/run.py
// builds this binary, compares the digests with the pinned ones and prints
// the benchmark's result line.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--quick] [--work-dir DIR] [--spans FILE]
//   perfbench --pin --workload NAME [--seed N] [--quick] [--work-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>

#include "common/arena.hpp"
#include "controller/soa_kernels.hpp"
#include "core/experiments.hpp"
#include "obs/json.hpp"
#include "workload/spec.hpp"
#include "workloads.hpp"

namespace {

using mcm::obs::JsonValue;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

/// Machine and build facts, so numbers are never compared across machines.
/// The AVX2 arbitration kernel runs only on queues of at least
/// kAvx2MinSlots padded slots; the stamp records whether any workload's
/// queue depth reaches that.
JsonValue stamp() {
  namespace k = mcm::ctrl::kernels;
  JsonValue s = JsonValue::object();
  s["cpu_model"] = cpu_model();
  s["nproc"] = std::thread::hardware_concurrency();
  s["compiler"] = PERFBENCH_COMPILER;
  s["build_type"] = PERFBENCH_BUILD_TYPE;
  s["simd_active_level"] = std::string(k::to_string(k::active_level()));
  s["simd_compiled_isa"] = std::string(k::compiled_isa());
  s["arena_enabled"] = mcm::common::arena_enabled();
  const std::uint32_t depths[] = {
      mcm::core::ExperimentConfig::paper_defaults().base.controller.queue_depth,
      mcm::workload::WorkloadSpec{}.system_config().controller.queue_depth};
  bool engaged = false;
  JsonValue& qd = s["queue_depths"];
  qd = JsonValue::array();
  for (const std::uint32_t d : depths) {
    qd.push(d);
    const std::uint32_t padded = (d + 3u) & ~3u;
    engaged = engaged || (k::active_level() == k::SimdLevel::kAvx2 &&
                          padded >= k::kAvx2MinSlots);
  }
  s["avx2_kernel_engaged"] = engaged;
  return s;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool pin = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after an option");
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() != "0";
      else if (a == "--quick") opt.quick = true;
      else if (a == "--work-dir") opt.work_dir = value();
      else if (a == "--spans") opt.spans_path = value();
      else if (a == "--pin") pin = true;
      else usage("unknown option");
    } catch (const std::logic_error&) {
      usage("malformed number");
    }
  }
  try {
    JsonValue doc = JsonValue::object();
    doc["workload"] = opt.workload;
    doc["seed"] = opt.seed;
    std::vector<perfbench::Op> ops;
    if (pin) {
      ops = perfbench::pin_workload(opt);
    } else {
      perfbench::Report rep = perfbench::run_workload(opt);
      ops = std::move(rep.ops);
      JsonValue& metrics = doc["metrics"];
      metrics = JsonValue::object();
      for (const auto& m : rep.metrics) {
        JsonValue e = JsonValue::object();
        e["value"] = m.value;
        e["unit"] = m.unit;
        metrics[m.name] = std::move(e);
      }
      doc["info"] = std::move(rep.info);
      doc["stamp"] = stamp();
    }
    JsonValue& arr = doc["ops"];
    arr = JsonValue::array();
    for (const auto& op : ops) {
      JsonValue e = JsonValue::object();
      e["key"] = op.key;
      e["digest"] = op.digest;
      if (!op.error.empty()) e["error"] = op.error;
      arr.push(std::move(e));
    }
    doc.dump(std::cout, 0);
    std::cout << std::endl;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
