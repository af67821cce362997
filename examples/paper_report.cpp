// One-shot reproduction report: regenerates Table I and Figs. 3-5 plus the
// XDR comparison and writes a self-contained markdown report with
// paper-vs-measured verdicts. The figure grids run through the parallel
// exploration engine (src/explore), so wall-clock scales with the pool size
// (--threads / MCM_THREADS).
//
//   $ ./paper_report [output.md] [--fast] [--threads N]
//
// --fast uses the closed-form analytic estimator (instant, +/-20 %) instead
// of the transaction-level simulator.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <tuple>

#include "core/experiments.hpp"
#include "core/result_export.hpp"
#include "explore/orchestrator.hpp"
#include "exec/thread_pool.hpp"
#include "obs/run_report.hpp"
#include "xdr/xdr_model.hpp"

namespace {

using namespace mcm;

struct Cell {
  double access_ms = 0;
  double power_mw = 0;
  bool meets = false;
  bool meets_margin = false;
};

Cell to_cell(const explore::ExploreResult& r) {
  Cell cell;
  cell.access_ms = r.access_time().ms();
  cell.power_mw = r.total_power_mw();
  cell.meets = r.simulated ? r.sim.meets_realtime : r.analytic.meets_realtime;
  cell.meets_margin = r.feasible(0.15);
  return cell;
}

/// The engine-run grid, indexed by (freq, channels, level).
class CellGrid {
 public:
  CellGrid(const explore::ExperimentSpec& spec, explore::Engine engine,
           unsigned threads) {
    explore::OrchestratorOptions opt;
    opt.engine = engine;
    opt.threads = threads;
    run_ = explore::Orchestrator(opt).run(spec);
    for (const auto& r : run_.results) {
      cells_[key(r.point.freq_mhz, r.point.channels, r.point.level)] =
          to_cell(r);
    }
  }

  [[nodiscard]] const Cell& at(double freq, std::uint32_t ch,
                               video::H264Level level) const {
    return cells_.at(key(freq, ch, level));
  }

 private:
  using Key = std::tuple<double, std::uint32_t, video::H264Level>;
  [[nodiscard]] static Key key(double f, std::uint32_t ch,
                               video::H264Level level) {
    return {f, ch, level};
  }
  explore::ExploreRun run_;
  std::map<Key, Cell> cells_;
};

void record_cell(obs::RunReport& report, const char* section, const char* label,
                 double freq, std::uint32_t ch, const video::LevelSpec& spec,
                 const Cell& c) {
  auto& pt = report.add_point(label);
  pt["section"] = section;
  pt["freq_mhz"] = freq;
  pt["channels"] = ch;
  pt["level"] = spec.name;
  pt["format"] = spec.format;
  pt["access_ms"] = c.access_ms;
  pt["power_mw"] = c.power_mw;
  pt["meets_realtime"] = c.meets;
  pt["meets_realtime_with_margin"] = c.meets_margin;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = "REPORT.md";
  bool fast = false;
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      path = argv[i];
    }
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  const auto base = core::ExperimentConfig::paper_defaults();
  const auto engine =
      fast ? explore::Engine::kAnalytic : explore::Engine::kSimulator;
  std::printf("Generating %s (%s engine, %u threads)...\n", path,
              fast ? "analytic" : "transaction-level",
              exec::ThreadPool::resolve_thread_count(threads));

  // Run both figure grids through the parallel engine up front; the tables
  // below just read cells.
  explore::ExperimentSpec fig3_spec;
  fig3_spec.base = base;
  fig3_spec.levels = {video::H264Level::k31};
  fig3_spec.channels = core::paper_channel_counts();
  fig3_spec.freq_mhz = core::paper_frequencies();
  const CellGrid fig3(fig3_spec, engine, threads);

  explore::ExperimentSpec fig45_spec;
  fig45_spec.base = base;
  fig45_spec.channels = core::paper_channel_counts();
  fig45_spec.freq_mhz = {400.0};
  const CellGrid fig45(fig45_spec, engine, threads);

  obs::RunReport report("paper_report");
  core::export_config(report.config(), base.base, base.usecase);
  report.config()["engine"] = fast ? "analytic" : "transaction-level";
  report.config()["threads"] = exec::ThreadPool::resolve_thread_count(threads);

  out << "# Reproduction report\n\n"
      << "Engine: " << (fast ? "analytic estimator (+/-20 %)" : "transaction-level simulator")
      << ". All values regenerated by `paper_report`.\n\n";

  // Table I.
  out << "## Table I - data memory load\n\n"
      << "| level | format | MB/s | paper anchor |\n|---|---|---|---|\n";
  const char* anchors[] = {"1.9 GB/s", "-", "4.3 GB/s", "8.6 GB/s", "-"};
  int idx = 0;
  for (const auto level : video::kAllLevels) {
    video::UseCaseParams uc = base.usecase;
    uc.level = level;
    const video::UseCaseModel m(uc);
    char buf[160];
    std::snprintf(buf, sizeof buf, "| %s | %ux%u@%.0f | %.0f | %s |\n",
                  std::string(m.level().name).c_str(), m.level().resolution.width,
                  m.level().resolution.height, m.level().fps,
                  m.total_mb_per_second(), anchors[idx++]);
    out << buf;

    auto& pt = report.add_point(std::string("table1/L") +
                                std::string(m.level().name));
    pt["section"] = "table1";
    pt["level"] = m.level().name;
    pt["format"] = m.level().format;
    pt["mb_per_second"] = m.total_mb_per_second();
  }

  // Fig. 3.
  out << "\n## Fig. 3 - access time vs clock (720p30, ms)\n\n| MHz |";
  for (const auto ch : core::paper_channel_counts()) out << " " << ch << " ch |";
  out << "\n|---|---|---|---|---|\n";
  for (const double f : core::paper_frequencies()) {
    char head[32];
    std::snprintf(head, sizeof head, "| %.0f |", f);
    out << head;
    for (const auto ch : core::paper_channel_counts()) {
      const Cell& c = fig3.at(f, ch, video::H264Level::k31);
      char label[48];
      std::snprintf(label, sizeof label, "fig3/%.0fMHz/%uch", f, ch);
      record_cell(report, "fig3", label, f, ch,
                  video::level_spec(video::H264Level::k31), c);
      char buf[48];
      std::snprintf(buf, sizeof buf, " %.2f%s |", c.access_ms,
                    c.meets ? (c.meets_margin ? "" : " (m)") : " (!)");
      out << buf;
    }
    out << "\n";
  }
  out << "\n`(!)` misses 33.3 ms; `(m)` marginal (no 15 % margin).\n";

  // Figs. 4 and 5.
  out << "\n## Figs. 4/5 - access time and power vs format (400 MHz)\n\n"
      << "| format | ch | access [ms] | power [mW] | verdict |\n"
      << "|---|---|---|---|---|\n";
  for (const auto level : video::kAllLevels) {
    const auto& spec = video::level_spec(level);
    for (const auto ch : core::paper_channel_counts()) {
      const Cell& c = fig45.at(400.0, ch, level);
      char label[64];
      std::snprintf(label, sizeof label, "fig4_5/L%s/%uch",
                    std::string(spec.name).c_str(), ch);
      record_cell(report, "fig4_5", label, 400.0, ch, spec, c);
      char buf[160];
      std::snprintf(buf, sizeof buf, "| %ux%u@%.0f | %u | %.2f | %.0f | %s |\n",
                    spec.resolution.width, spec.resolution.height, spec.fps, ch,
                    c.access_ms, c.power_mw,
                    c.meets_margin ? "ok" : (c.meets ? "marginal" : "misses"));
      out << buf;
    }
  }

  // XDR.
  const xdr::XdrInterface xdr;
  const Cell& lo = fig45.at(400.0, 8, video::H264Level::k31);
  const Cell& hi = fig45.at(400.0, 8, video::H264Level::k52);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "\n## XDR comparison\n\n8 channels @400 MHz: %.1f%%-%.1f%% of "
                "the Cell BE XDR's %.1f W (paper: 4%%-25%%).\n",
                100.0 * xdr.power_fraction(lo.power_mw),
                100.0 * xdr.power_fraction(hi.power_mw), xdr.typical_power_w);
  out << buf;

  auto& xj = report.root()["xdr"];
  xj["typical_power_w"] = xdr.typical_power_w;
  xj["fraction_720p30_8ch"] = xdr.power_fraction(lo.power_mw);
  xj["fraction_2160p30_8ch"] = xdr.power_fraction(hi.power_mw);

  const std::string rp = report.write_default();
  if (!rp.empty()) std::printf("[run report: %s]\n", rp.c_str());

  std::printf("Wrote %s\n", path);
  return 0;
}
