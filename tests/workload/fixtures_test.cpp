// Committed test fixtures must be reproducible and reach a fresh clone.
//
// ReadFixturesAreTrackedByGit collects every fixture path the test suite or
// the CI workflow reads and fails when one is missing or not tracked by git
// (a file that exists locally but is ignored passes every local run and
// fails on a clean checkout). SampleTraceMatchesRecordRecipe pins
// workloads/sample.trace to the recipe documented in docs/workloads.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "load/trace.hpp"
#include "workload/spec.hpp"
#include "workload/workload.hpp"

#ifndef MCM_SOURCE_DIR
#define MCM_SOURCE_DIR "."
#endif

namespace mcm::workload {
namespace {

namespace fs = std::filesystem;

const fs::path kRoot{MCM_SOURCE_DIR};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Repo-relative paths of every file git tracks; nullopt when the source
/// tree is not a git checkout (or git is unavailable).
std::optional<std::set<std::string>> git_tracked_files() {
  const std::string cmd =
      "git -C '" + kRoot.string() + "' ls-files -z 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::set<std::string> out;
  std::string cur;
  for (int c; (c = std::fgetc(pipe)) != EOF;) {
    if (c == '\0') {
      out.insert(cur);
      cur.clear();
    } else {
      cur.push_back(static_cast<char>(c));
    }
  }
  if (pclose(pipe) != 0 || out.empty()) return std::nullopt;
  return out;
}

/// Fixture paths (repo-relative) read by tests/ sources and the CI workflow:
/// literal `workloads/...` and `tests/verify/repros/...` paths, file names
/// joined onto the MCM_WORKLOAD_DIR and MCM_VERIFY_REPRO_DIR definitions the
/// test targets get, and the trace files the referenced workload specs
/// replay.
std::set<std::string> referenced_fixtures() {
  static const std::regex literal(
      R"re((?:^|[^A-Za-z0-9_./-])((?:workloads|tests/verify/repros)/[A-Za-z0-9_.-]+\.[A-Za-z]+))re");
  static const std::regex joined(
      R"re((MCM_WORKLOAD_DIR|MCM_VERIFY_REPRO_DIR)\)?\s*\+?\s*"/([A-Za-z0-9_.-]+)")re");
  std::vector<fs::path> sources{kRoot / ".github/workflows/ci.yml"};
  for (const auto& e : fs::recursive_directory_iterator(kRoot / "tests")) {
    const std::string ext = e.path().extension().string();
    if (e.is_regular_file() && (ext == ".cpp" || ext == ".hpp")) {
      sources.push_back(e.path());
    }
  }
  std::set<std::string> out;
  for (const fs::path& src : sources) {
    const std::string text = slurp(src);
    for (std::sregex_iterator it(text.begin(), text.end(), literal), end;
         it != end; ++it) {
      out.insert((*it)[1].str());
    }
    for (std::sregex_iterator it(text.begin(), text.end(), joined), end;
         it != end; ++it) {
      const std::string dir = (*it)[1].str() == "MCM_WORKLOAD_DIR"
                                  ? "workloads/"
                                  : "tests/verify/repros/";
      out.insert(dir + (*it)[2].str());
    }
  }
  // Workload specs pull in their trace tenants' files.
  std::set<std::string> traces;
  for (const std::string& rel : out) {
    if (rel.size() < 14 || rel.substr(rel.size() - 14) != ".workload.json") {
      continue;
    }
    std::string error;
    const auto spec = load_workload((kRoot / rel).string(), &error);
    if (!spec) continue;  // a missing spec fails the tracked check below
    for (const TenantSpec& t : spec->tenants) {
      if (t.kind != "trace") continue;
      traces.insert(fs::relative(fs::path(t.path), kRoot).generic_string());
    }
  }
  out.insert(traces.begin(), traces.end());
  return out;
}

TEST(Fixtures, ReadFixturesAreTrackedByGit) {
  const std::set<std::string> fixtures = referenced_fixtures();
  // The scanner must keep seeing the fixtures the suite is known to read.
  ASSERT_TRUE(fixtures.count("workloads/mixed_tenants.workload.json"));
  ASSERT_TRUE(fixtures.count("workloads/mixed_tenants.report.json"));
  ASSERT_TRUE(fixtures.count("workloads/sample.trace"));
  ASSERT_TRUE(fixtures.count("tests/verify/repros/ignore_tras.json"));

  const auto tracked = git_tracked_files();
  if (!tracked) GTEST_SKIP() << "source tree is not a git checkout";
  for (const std::string& f : fixtures) {
    EXPECT_TRUE(fs::exists(kRoot / f)) << f << " is read but does not exist";
    EXPECT_TRUE(tracked->count(f))
        << f << " is read by a test or CI step but not tracked by git "
        << "(check .gitignore)";
  }
}

TEST(Fixtures, SampleTraceMatchesRecordRecipe) {
  std::string error;
  const auto spec = load_workload(
      (kRoot / "workloads/sample_trace.workload.json").string(), &error);
  ASSERT_TRUE(spec.has_value()) << error;
  std::ostringstream recorded;
  load::write_trace(recorded, record_workload(*spec));
  EXPECT_EQ(recorded.str(), slurp(kRoot / "workloads/sample.trace"))
      << "re-record with: mcm_trace record "
         "workloads/sample_trace.workload.json workloads/sample.trace";
}

}  // namespace
}  // namespace mcm::workload
