#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "core/experiments.hpp"
#include "core/frame_simulator.hpp"
#include "core/result_export.hpp"
#include "core/sharded_engine.hpp"
#include "exec/thread_pool.hpp"
#include "explore/orchestrator.hpp"
#include "load/stream_cache.hpp"
#include "load/usecase_sources.hpp"
#include "multichannel/memory_system.hpp"
#include "obs/prof.hpp"
#include "spans.hpp"
#include "tenants.hpp"
#include "workload/trace_format.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using mcm::Time;
using mcm::obs::JsonValue;
using mcm::video::H264Level;
namespace core = mcm::core;
namespace explore = mcm::explore;
namespace load = mcm::load;
namespace mc = mcm::multichannel;
namespace prof = mcm::obs::prof;

// ---------------------------------------------------------------------------
// Shared pieces

/// Pool width for the grid and sim workers for uhd_8ch: 4, within nproc.
unsigned pool_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// FNV-1a 64 over the compact JSON form: a stable digest of one result.
std::string digest_of(const JsonValue& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : v.dump_string(0)) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string level_name(H264Level level) {
  return std::string(mcm::video::level_spec(level).name);
}

std::string point_key(H264Level level, std::uint32_t channels) {
  return "L" + level_name(level) + "/" + std::to_string(channels) + "ch";
}

/// Simulated outputs of a video point: configuration plus every exported
/// result measure. Thread counts and wall times are not part of it.
JsonValue export_video(const mc::SystemConfig& sys,
                       const mcm::video::UseCaseParams& usecase,
                       const core::FrameSimResult& r) {
  JsonValue pt = JsonValue::object();
  core::export_config(pt["config"], sys, usecase);
  core::export_result(pt["result"], r);
  return pt;
}

JsonValue export_mixed(const mcm::workload::CompiledWorkload& compiled,
                       const core::FrameSimResult& r) {
  JsonValue pt = JsonValue::object();
  JsonValue& tenants = pt["tenants"];
  tenants = JsonValue::array();
  for (const auto& t : compiled.tenants) {
    JsonValue e = JsonValue::object();
    e["name"] = t.name;
    e["kind"] = t.kind;
    e["partition_base"] = t.partition_base;
    e["partition_bytes"] = t.partition_bytes;
    e["requests"] = t.requests;
    e["bytes"] = t.bytes;
    tenants.push(std::move(e));
  }
  core::export_result(pt["result"], r);
  return pt;
}

/// The paper's Fig. 5 power anchors at 400 MHz.
struct Anchor {
  H264Level level;
  std::uint32_t channels;
  double paper_mw;
};
constexpr Anchor kAnchors[] = {
    {H264Level::k31, 1, 150.0},
    {H264Level::k31, 8, 205.0},
    {H264Level::k40, 4, 345.0},
    {H264Level::k52, 8, 1280.0},
};

/// Mean absolute relative error (%) of simulated total power against the
/// anchors found in `power_mw` (keyed by point_key).
double anchor_error_pct(const std::map<std::string, double>& power_mw) {
  double sum = 0;
  int n = 0;
  for (const Anchor& a : kAnchors) {
    const auto it = power_mw.find(point_key(a.level, a.channels));
    if (it == power_mw.end()) continue;
    sum += std::fabs(it->second - a.paper_mw) / a.paper_mw;
    ++n;
  }
  return n > 0 ? 100.0 * sum / n : 0.0;
}

/// The Fig. 4/5 grid as the sweep API builds it (same base, same seeds), so
/// its points equal the fig4/fig5 report points.
explore::ExperimentSpec grid_spec(bool quick) {
  explore::ExperimentSpec spec;
  spec.base = core::ExperimentConfig::paper_defaults();
  spec.interleave_bytes = {spec.base.base.interleave_bytes};
  spec.address_muxes = {spec.base.base.mux};
  spec.page_policies = {spec.base.base.controller.page_policy};
  spec.schedulers = {spec.base.base.controller.scheduler};
  spec.base_seed = spec.base.sim.load.seed;
  spec.freq_mhz = {400.0};
  spec.channels = core::paper_channel_counts();
  if (quick) spec.levels = {H264Level::k31, H264Level::k40};
  return spec;
}

/// Stream alignment and load options exactly as the frame simulator derives
/// them, so a lookup made here hits the entry the simulator will ask for.
struct StreamInputs {
  std::uint64_t align = 0;
  load::LoadOptions load;
};
StreamInputs stream_inputs(const mc::SystemConfig& sys, load::LoadOptions load) {
  StreamInputs in;
  const std::uint64_t stripe =
      static_cast<std::uint64_t>(sys.interleave_bytes) * sys.channels;
  in.align = std::max<std::uint64_t>(64 * 1024, stripe);
  in.load = load;
  in.load.burst_bytes = sys.device.org.bytes_per_burst();
  in.load.chunk_bytes = std::max(in.load.chunk_bytes, in.load.burst_bytes);
  return in;
}

std::shared_ptr<const load::CachedWorkload> cached_stream(
    const mc::SystemConfig& sys, const mcm::video::UseCaseParams& usecase,
    const load::LoadOptions& load_opt) {
  const mcm::video::UseCaseModel model(usecase);
  const StreamInputs in = stream_inputs(sys, load_opt);
  const mcm::video::SurfaceLayout layout(model, in.align);
  return load::StreamCache::instance().get(model, layout, in.align, in.load);
}

/// The measures the frame loop leaves for finalize: mirrors what
/// FrameSimulator and workload::run_workload do after the engine returns.
core::FrameSimResult finish(mc::MemorySystem& sys, const core::ShardedRunOutput& out,
                            Time period, int frames, double demand_bps) {
  core::FrameSimResult r;
  const Time window = max(out.end_time, period * frames);
  sys.finalize(window);
  r.frame_period = period;
  r.window = window;
  r.access_time = Time{out.access_accum.ps() / frames};
  r.per_frame_access = out.per_frame_access;
  r.bytes_per_frame = out.bytes_first_frame;
  r.demand_bandwidth_bytes_per_s = demand_bps;
  r.meets_realtime = r.access_time <= period;
  r.meets_realtime_with_margin =
      r.access_time.seconds() <= period.seconds() * (1.0 - 0.15);
  r.achieved_bandwidth_bytes_per_s =
      r.access_time > Time::zero()
          ? static_cast<double>(r.bytes_per_frame) / r.access_time.seconds()
          : 0.0;
  r.stats = sys.stats();
  r.power = sys.power(window);
  r.dram_power_mw = r.power.dram_mw;
  r.interface_power_mw = r.power.interface_mw;
  r.total_power_mw = r.power.total_mw;
  return r;
}

/// One engine run from outside the frame simulator, split into spans.
struct Replica {
  core::FrameSimResult result;
  std::vector<std::uint64_t> routes;
  double engine_s = 0;
};
Replica run_replica(const mc::SystemConfig& cfg, const load::CachedWorkload& wl,
                    int frames, Time period, unsigned sim_threads,
                    double demand_bps, SpanLog* log, std::uint64_t group) {
  Replica rep;
  mc::MemorySystem sys(cfg);
  const std::vector<const load::CachedWorkload*> stream(
      static_cast<std::size_t>(frames), &wl);
  core::ShardedRunOutput out;
  {
    auto s = span(log, "core.engine", group);
    const std::int64_t t0 = now_ns();
    out = core::run_sharded_frames(sys, stream, period, sim_threads);
    rep.engine_s = seconds_since(t0);
  }
  {
    auto s = span(log, "core.finalize", group);
    rep.result = finish(sys, out, period, frames, demand_bps);
  }
  rep.routes = sys.route_counts();
  return rep;
}

/// Max over mean of the requests routed to each channel.
double imbalance(const std::vector<std::uint64_t>& routes) {
  double sum = 0, mx = 0;
  for (const auto n : routes) {
    sum += static_cast<double>(n);
    mx = std::max(mx, static_cast<double>(n));
  }
  return sum > 0 ? mx / (sum / static_cast<double>(routes.size())) : 0.0;
}

// ---------------------------------------------------------------------------
// Per-layer tallies

/// Simulated counters summed over every result of an iteration.
struct SimTotals {
  std::uint64_t accesses = 0, row_hits = 0, row_conflicts = 0;
  std::uint64_t activates = 0, refreshes = 0, pd_entries = 0, sr_entries = 0;
  std::unique_ptr<mcm::Histogram> latency;
  std::unique_ptr<mcm::Histogram> queue_depth;

  void add(const core::FrameSimResult& r) {
    const auto& s = r.stats;
    accesses += s.accesses();
    row_hits += s.row_hits;
    row_conflicts += s.row_conflicts;
    activates += s.activates;
    refreshes += s.refreshes;
    pd_entries += s.powerdown_entries;
    sr_entries += s.selfrefresh_entries;
    if (!latency) latency = std::make_unique<mcm::Histogram>(s.latency_hist_ns);
    else *latency += s.latency_hist_ns;
    for (const auto& ch : s.per_channel) {
      if (!queue_depth) queue_depth = std::make_unique<mcm::Histogram>(ch.queue_depth);
      else *queue_depth += ch.queue_depth;
    }
  }
};

struct ReplayStats {
  double submit_p50 = 0, submit_p99 = 0, next_p50 = 0, next_p99 = 0;
  double retry_ratio = 0;
};

std::uint64_t cycles() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(now_ns());
#endif
}

/// Feed a packed stream through MemorySystem::try_submit/process_next (the
/// sequential feed) and time 1 call in kEvery of each with the cycle
/// counter: both calls take well under a microsecond, about what a clock
/// read costs. Retries count the rejected try_submit calls (queue full).
ReplayStats replay(const mc::SystemConfig& cfg, const load::CachedWorkload& wl,
                   std::uint64_t cap) {
  constexpr std::uint64_t kEvery = 64;
  mc::MemorySystem sys(cfg);
  std::vector<double> submit_cy, next_cy;
  std::uint64_t attempts = 0, rejected = 0, nexts = 0, fed = 0;
  const auto timed_next = [&]() {
    if (++nexts % kEvery != 0) return sys.process_next();
    const std::uint64_t c0 = cycles();
    auto c = sys.process_next();
    next_cy.push_back(static_cast<double>(cycles() - c0));
    return c;
  };
  const std::int64_t t0 = now_ns();
  const std::uint64_t c0 = cycles();
  Time stage_start = Time::zero();
  for (const auto& stage : wl.stages) {
    Time last = stage_start;
    for (const std::uint64_t packed : stage.reqs) {
      if (fed++ >= cap) break;
      mcm::ctrl::Request r;
      r.addr = load::CachedStage::addr_of(packed);
      r.is_write = load::CachedStage::is_write_of(packed);
      r.arrival = stage_start;
      r.source = stage.source_id;
      for (;;) {
        bool ok = false;
        if (++attempts % kEvery == 0) {
          const std::uint64_t s0 = cycles();
          ok = sys.try_submit(r);
          submit_cy.push_back(static_cast<double>(cycles() - s0));
        } else {
          ok = sys.try_submit(r);
        }
        if (ok) break;
        ++rejected;
        if (auto c = timed_next()) last = max(last, c->done);
      }
    }
    while (auto c = timed_next()) last = max(last, c->done);
    stage_start = last;
  }
  const double ns_per_cycle =
      static_cast<double>(now_ns() - t0) / static_cast<double>(std::max<std::uint64_t>(1, cycles() - c0));
  ReplayStats st;
  st.submit_p50 = percentile(submit_cy, 0.50) * ns_per_cycle;
  st.submit_p99 = percentile(submit_cy, 0.99) * ns_per_cycle;
  st.next_p50 = percentile(next_cy, 0.50) * ns_per_cycle;
  st.next_p99 = percentile(next_cy, 0.99) * ns_per_cycle;
  st.retry_ratio = attempts > 0 ? static_cast<double>(rejected) / static_cast<double>(attempts) : 0;
  return st;
}

/// Live enumeration of one frame through the load models (what the
/// concurrent feed does every frame). Returns the requests enumerated.
std::uint64_t enumerate_live(const mcm::video::UseCaseParams& usecase,
                             const mc::SystemConfig& sys) {
  const mcm::video::UseCaseModel model(usecase);
  const StreamInputs in = stream_inputs(sys, load::LoadOptions{});
  const mcm::video::SurfaceLayout layout(model, in.align);
  std::uint64_t n = 0;
  volatile std::uint64_t sink = 0;  // keeps every head() call
  for (auto& src : load::build_stage_sources(model, layout, in.load)) {
    for (; !src->done(); src->advance()) {
      sink = src->head().addr;
      ++n;
    }
  }
  (void)sink;
  return n;
}

// ---------------------------------------------------------------------------
// Workloads

struct Iteration {
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t requests = 0;
  std::vector<Op> ops;
  std::map<std::string, double> power_mw;  // by point_key, for the anchors
  SimTotals totals;
  std::vector<std::uint64_t> routes;
};

/// Per-layer metric values by name.
using Layers = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs a run needs once (not timed).
  virtual void prepare() {}
  /// One cold iteration: set-up, simulation, finalize, export.
  virtual Iteration iterate(SpanLog* log) = 0;
  /// Traced run only: per-layer measurements outside the coverage window.
  virtual void extras(const Iteration& traced, SpanLog& log, Layers& out,
                      std::vector<Op>& ops) = 0;
  /// Whether the accuracy anchors come from the iteration itself.
  [[nodiscard]] virtual bool has_anchors() const { return false; }
  /// Seconds one full-size iteration takes on the 4-core box the benchmark
  /// was tuned on. A timed run makes floor(--seconds / this) iterations, so
  /// every run of a workload reports a median over the same number of
  /// iterations (peak RSS, too, grows with the count).
  [[nodiscard]] virtual double nominal_s() const = 0;
  /// The system the multichannel replay uses, and its stream.
  virtual void replay_input(mc::SystemConfig& cfg,
                            std::shared_ptr<const load::CachedWorkload>& wl) = 0;
};

class PaperGrid final : public Workload {
 public:
  explicit PaperGrid(bool quick) : spec_(grid_spec(quick)), points_(spec_.expand()) {}

  bool has_anchors() const override { return true; }
  double nominal_s() const override { return 6.5; }

  Iteration iterate(SpanLog* log) override {
    Iteration it;
    auto& cache = load::StreamCache::instance();
    cache.clear();
    const std::int64_t t0 = now_ns();
    {
      // Input build: every point's stream, under the key the point's frame
      // simulator will look up, on a pool as wide as the grid's.
      auto s = span(log, "load.stream_build");
      std::vector<mcm::exec::ThreadPool::Task> tasks;
      for (const auto& p : points_) {
        tasks.push_back([this, &p] {
          load::LoadOptions opt = spec_.base.sim.load;
          opt.seed = p.seed(spec_.base_seed);
          (void)cached_stream(p.system(spec_.base), p.usecase(spec_.base), opt);
        });
      }
      mcm::exec::ThreadPool pool(pool_threads());
      pool.run_batch(std::move(tasks));
    }
    it.setup_s = seconds_since(t0);
    entries_after_setup_ = cache.stats().stream_entries;
    explore::ExploreRun run;
    {
      auto s = span(log, "explore.grid");
      explore::OrchestratorOptions opt;
      opt.threads = pool_threads();
      run = explore::Orchestrator(opt).run(spec_);
      grid_s_ = s.stop();
    }
    {
      auto s = span(log, "core.export");
      for (const auto& r : run.results) {
        const auto key = point_key(r.point.level, r.point.channels);
        it.ops.push_back({"grid/" + key,
                          digest_of(export_video(r.point.system(spec_.base),
                                                 r.point.usecase(spec_.base), r.sim)),
                          ""});
        it.power_mw[key] = r.sim.total_power_mw;
        it.requests += r.sim.stats.accesses();
        it.totals.add(r.sim);
      }
    }
    it.wall_s = seconds_since(t0);
    return it;
  }

  void extras(const Iteration&, SpanLog& log, Layers& out,
              std::vector<Op>& ops) override {
    auto& cache = load::StreamCache::instance();
    const auto st = cache.stats();
    out["load.stream_requests"] = static_cast<double>(st.stream_bytes / sizeof(std::uint64_t));
    out["load.stream_mb"] = static_cast<double>(st.stream_bytes) / 1e6;
    out["load.meta_mb"] = static_cast<double>(st.meta_bytes) / 1e6;
    out["load.cache_hit_ratio"] =
        1.0 - static_cast<double>(entries_after_setup_) / static_cast<double>(points_.size());

    // Each point alone on one thread, then the same point through the
    // engine from outside (inputs warm from the traced iteration).
    std::vector<double> point_s;
    double engine_s = 0, frame_s = 0, worst_imbalance = 0;
    std::uint64_t group = 0;
    for (const auto& p : points_) {
      ++group;
      explore::OrchestratorOptions opt;
      opt.threads = 1;
      {
        auto s = span(&log, "explore.point", group);
        (void)explore::Orchestrator(opt).run(spec_, {p});
        point_s.push_back(s.stop());
      }
      const mc::SystemConfig sys = p.system(spec_.base);
      const mcm::video::UseCaseParams uc = p.usecase(spec_.base);
      Replica rep;
      {
        auto s = span(&log, "core.frame_run", group);
        load::LoadOptions lo = spec_.base.sim.load;
        lo.seed = p.seed(spec_.base_seed);
        const auto wl = cached_stream(sys, uc, lo);
        const mcm::video::UseCaseModel model(uc);
        rep = run_replica(sys, *wl, 1, model.frame_period(), 1,
                          model.total_mb_per_second() * 1e6, &log, group);
        frame_s += s.stop();
      }
      engine_s += rep.engine_s;
      worst_imbalance = std::max(worst_imbalance, imbalance(rep.routes));
      ops.push_back({"grid/" + point_key(p.level, p.channels),
                     digest_of(export_video(sys, uc, rep.result)), ""});
    }
    double work = 0;
    for (double s : point_s) work += s;
    out["explore.point_s_p50"] = median(point_s);
    out["explore.point_s_max"] = *std::max_element(point_s.begin(), point_s.end());
    out["explore.work_s"] = work;
    out["explore.grid_efficiency"] =
        std::max(out["explore.point_s_max"], work / pool_threads()) / grid_s_;
    out["core.frame_run_s"] = frame_s;
    out["core.engine_s"] = engine_s;
    out["core.finalize_s"] = log.self_seconds("core.finalize");
    out["multichannel.route_imbalance"] = worst_imbalance;

    double live_s = 0;
    for (const H264Level level : spec_.levels) {
      auto s = span(&log, "load.live_sources");
      explore::ExplorePoint p;
      p.level = level;
      (void)enumerate_live(p.usecase(spec_.base), p.system(spec_.base));
      live_s += s.stop();
    }
    out["load.live_sources_s"] = live_s;
  }

  void replay_input(mc::SystemConfig& cfg,
                    std::shared_ptr<const load::CachedWorkload>& wl) override {
    // 1080p30 on 4 channels: the grid's streaming fast path.
    for (const auto& p : points_) {
      if (p.level != H264Level::k40 || p.channels != 4) continue;
      cfg = p.system(spec_.base);
      load::LoadOptions lo = spec_.base.sim.load;
      lo.seed = p.seed(spec_.base_seed);
      wl = cached_stream(cfg, p.usecase(spec_.base), lo);
    }
  }

 private:
  explore::ExperimentSpec spec_;
  std::vector<explore::ExplorePoint> points_;
  std::uint64_t entries_after_setup_ = 0;
  double grid_s_ = 0;
};

/// Shared by the two single-point video workloads.
struct VideoPoint {
  mc::SystemConfig sys;
  mcm::video::UseCaseParams usecase;
  core::FrameSimOptions sim;
  std::string key;

  VideoPoint(H264Level level, std::uint32_t channels, int frames,
             const std::string& name) {
    const auto base = core::ExperimentConfig::paper_defaults();
    sys = base.base;
    sys.channels = channels;
    sys.freq = mcm::Frequency{400.0};
    usecase = base.usecase;
    usecase.level = level;
    sim = base.sim;
    sim.frames = frames;
    key = name + "/" + point_key(level, channels) + "/f" + std::to_string(frames);
  }
  [[nodiscard]] Time period() const {
    return mcm::video::UseCaseModel(usecase).frame_period();
  }
  [[nodiscard]] double demand_bps() const {
    return mcm::video::UseCaseModel(usecase).total_mb_per_second() * 1e6;
  }
};

class Uhd8ch final : public Workload {
 public:
  explicit Uhd8ch(bool quick)
      : pt_(quick ? H264Level::k31 : H264Level::k52, 8, quick ? 1 : 2, "uhd_8ch") {
    pt_.sim.sim_threads = pool_threads();
  }

  double nominal_s() const override { return 8.5; }

  Iteration iterate(SpanLog* log) override {
    Iteration it;
    auto& cache = load::StreamCache::instance();
    cache.clear();
    const std::int64_t t0 = now_ns();
    {
      auto s = span(log, "load.stream_build");
      wl_ = cached_stream(pt_.sys, pt_.usecase, pt_.sim.load);
    }
    {
      auto s = span(log, "load.meta_build");
      for (std::size_t i = 0; i < wl_->stages.size(); ++i) {
        (void)cache.chunk_meta(*wl_, i, pt_.sys.channels, pt_.sys.interleave_bytes);
      }
    }
    it.setup_s = seconds_since(t0);
    core::FrameSimResult r;
    {
      auto s = span(log, "core.frame_run");
      r = core::FrameSimulator(pt_.sim).run(pt_.sys, pt_.usecase);
    }
    {
      auto s = span(log, "core.export");
      it.ops.push_back({pt_.key, digest_of(export_video(pt_.sys, pt_.usecase, r)), ""});
    }
    it.requests = r.stats.accesses();
    it.power_mw[point_key(pt_.usecase.level, pt_.sys.channels)] = r.total_power_mw;
    it.totals.add(r);
    it.wall_s = seconds_since(t0);
    return it;
  }

  void extras(const Iteration&, SpanLog& log, Layers& out,
              std::vector<Op>& ops) override {
    const auto st = load::StreamCache::instance().stats();
    out["load.stream_requests"] = static_cast<double>(wl_->total_requests);
    out["load.stream_mb"] = static_cast<double>(st.stream_bytes) / 1e6;
    out["load.meta_mb"] = static_cast<double>(st.meta_bytes) / 1e6;
    out["load.cache_hit_ratio"] = 0;  // one format, one lookup

    // The engine from outside at 1 and at 4 workers, same inputs (warm).
    std::string digest[2];
    Replica rep[2];
    const unsigned workers[2] = {1, pool_threads()};
    for (int i = 0; i < 2; ++i) {
      {
        auto s = span(&log, "core.frame_run", workers[i]);
        rep[i] = run_replica(pt_.sys, *wl_, pt_.sim.frames, pt_.period(),
                             workers[i], pt_.demand_bps(), &log, workers[i]);
      }
      digest[i] = digest_of(export_video(pt_.sys, pt_.usecase, rep[i].result));
      ops.push_back({pt_.key, digest[i], ""});
    }
    if (digest[0] != digest[1]) {
      ops.push_back({pt_.key + "/workers-equal", "",
                     "4-worker output differs from 1-worker output"});
    }
    out["core.engine_s"] = rep[1].engine_s;
    out["core.finalize_s"] = log.self_seconds("core.finalize") / 2;
    out["core.simt_speedup"] = rep[0].engine_s / rep[1].engine_s;
    out["multichannel.route_imbalance"] = imbalance(rep[1].routes);

    auto s = span(&log, "load.live_sources");
    (void)enumerate_live(pt_.usecase, pt_.sys);
    out["load.live_sources_s"] = s.stop();
  }

  void replay_input(mc::SystemConfig& cfg,
                    std::shared_ptr<const load::CachedWorkload>& wl) override {
    cfg = pt_.sys;
    wl = wl_;
  }

 private:
  VideoPoint pt_;
  std::shared_ptr<const load::CachedWorkload> wl_;
};

class MixedRandom final : public Workload {
 public:
  MixedRandom(bool quick, std::uint64_t seed, std::string dir)
      : quick_(quick), seed_(seed), dir_(std::move(dir)) {}

  double nominal_s() const override { return 2.0; }

  void prepare() override {
    requests_ = quick_ ? 100'000 : 4'000'000;
    spec_ = write_mixed_tenants(dir_, seed_, requests_);
    key_ = "mixed_random/s" + std::to_string(seed_) + "/r" + std::to_string(requests_);
  }

  Iteration iterate(SpanLog* log) override {
    Iteration it;
    load::StreamCache::instance().clear();
    const std::int64_t t0 = now_ns();
    {
      auto s = span(log, "workload.compile");
      compiled_ = mcm::workload::compile_workload(spec_);
    }
    it.setup_s = seconds_since(t0);
    const Time period{spec_.period_ps};
    Replica rep;
    {
      auto s = span(log, "core.frame_run");
      rep = run_replica(spec_.system_config(), *compiled_.frame, spec_.frames,
                        period, spec_.sim_threads,
                        static_cast<double>(compiled_.total_requests *
                                            compiled_.burst_bytes) /
                            period.seconds(),
                        log, 0);
    }
    {
      auto s = span(log, "core.export");
      Op op{key_, digest_of(export_mixed(compiled_, rep.result)), ""};
      const std::uint64_t want =
          compiled_.total_requests * static_cast<std::uint64_t>(spec_.frames);
      if (rep.result.stats.accesses() != want) {
        op.error = "served " + std::to_string(rep.result.stats.accesses()) +
                   " of " + std::to_string(want) + " requests";
      }
      it.ops.push_back(std::move(op));
    }
    it.requests = rep.result.stats.accesses();
    it.totals.add(rep.result);
    it.routes = rep.routes;
    engine_s_ = rep.engine_s;
    it.wall_s = seconds_since(t0);
    return it;
  }

  void extras(const Iteration& traced, SpanLog& log, Layers& out,
              std::vector<Op>& ops) override {
    {
      auto s = span(&log, "workload.trace_parse");
      for (const auto& t : spec_.tenants) {
        (void)mcm::workload::read_trace_file(
            t.path, mcm::workload::parse_trace_format(t.format));
      }
      out["workload.trace_parse_s"] = s.stop();
    }
    out["workload.requests"] = static_cast<double>(compiled_.total_requests);
    out["load.stream_requests"] = static_cast<double>(compiled_.total_requests);
    const auto st = load::StreamCache::instance().stats();
    out["load.stream_mb"] = static_cast<double>(st.stream_bytes) / 1e6;

    // The program's own path must give what the spans measured.
    {
      auto s = span(&log, "core.frame_run", 1);
      const auto run = mcm::workload::run_workload(spec_);
      ops.push_back({key_, digest_of(export_mixed(run.compiled, run.sim)), ""});
    }
    // Engine scaling on the same stream: 4 workers against the traced 1.
    mcm::workload::WorkloadSpec wide = spec_;
    wide.sim_threads = pool_threads();
    {
      auto s = span(&log, "core.frame_run", pool_threads());
      const Time period{spec_.period_ps};
      const Replica rep = run_replica(wide.system_config(), *compiled_.frame,
                                      spec_.frames, period, wide.sim_threads,
                                      static_cast<double>(compiled_.total_requests *
                                                          compiled_.burst_bytes) /
                                          period.seconds(),
                                      &log, pool_threads());
      out["core.simt_speedup"] = engine_s_ / rep.engine_s;
      ops.push_back({key_, digest_of(export_mixed(compiled_, rep.result)), ""});
    }
    out["multichannel.route_imbalance"] = imbalance(traced.routes);
  }

  void replay_input(mc::SystemConfig& cfg,
                    std::shared_ptr<const load::CachedWorkload>& wl) override {
    cfg = spec_.system_config();
    wl = compiled_.frame;
  }

 private:
  bool quick_;
  std::uint64_t seed_;
  std::string dir_;
  std::uint64_t requests_ = 0;
  mcm::workload::WorkloadSpec spec_;
  mcm::workload::CompiledWorkload compiled_;
  std::string key_;
  double engine_s_ = 0;
};

class ConcurrentDisplay final : public Workload {
 public:
  explicit ConcurrentDisplay(bool quick)
      : pt_(quick ? H264Level::k31 : H264Level::k40, 4, quick ? 1 : 3,
            "concurrent_display") {
    pt_.sim.mode = core::ExecutionMode::kConcurrent;
  }

  double nominal_s() const override { return 6.0; }

  Iteration iterate(SpanLog* log) override {
    Iteration it;
    // The set-up takes tens of microseconds, too short for one reading to
    // be steady: report the median of many repetitions made beforehand.
    std::vector<double> reps(kSetupRepeats);
    for (double& r : reps) r = set_up();
    it.setup_s = median(reps);
    const std::int64_t t0 = now_ns();
    {
      auto s = span(log, "load.live_sources");
      (void)set_up();
    }
    core::FrameSimResult r;
    {
      auto s = span(log, "core.frame_run");
      r = core::FrameSimulator(pt_.sim).run(pt_.sys, pt_.usecase);
    }
    {
      auto s = span(log, "core.export");
      it.ops.push_back({pt_.key, digest_of(export_video(pt_.sys, pt_.usecase, r)), ""});
    }
    it.requests = r.stats.accesses();
    it.power_mw[point_key(pt_.usecase.level, pt_.sys.channels)] = r.total_power_mw;
    it.totals.add(r);
    it.wall_s = seconds_since(t0);
    return it;
  }

  /// Everything the concurrent feed builds before its first request: the
  /// use-case model, the surface layout, the memory system and frame 0's
  /// live sources. No stream is enumerated ahead: the feed generates it
  /// live. Returns the seconds taken.
  double set_up() const {
    const std::int64_t t0 = now_ns();
    const mcm::video::UseCaseModel model(pt_.usecase);
    const StreamInputs in = stream_inputs(pt_.sys, pt_.sim.load);
    const mcm::video::SurfaceLayout layout(model, in.align);
    const mc::MemorySystem sys(pt_.sys);
    const auto sources = load::build_stage_sources(model, layout, in.load);
    return sources.empty() ? 0.0 : seconds_since(t0);
  }

  void extras(const Iteration&, SpanLog& log, Layers& out, std::vector<Op>&) override {
    // Live generation per frame, on its own: the share of the feed loop
    // spent in the load models.
    double live_s = 0;
    std::uint64_t n = 0;
    for (int f = 0; f < pt_.sim.frames; ++f) {
      auto s = span(&log, "load.live_sources", static_cast<std::uint64_t>(f));
      n = enumerate_live(pt_.usecase, pt_.sys);
      live_s += s.stop();
    }
    out["load.live_sources_s"] = live_s;
    out["load.stream_requests"] = static_cast<double>(n);
  }

  void replay_input(mc::SystemConfig& cfg,
                    std::shared_ptr<const load::CachedWorkload>& wl) override {
    cfg = pt_.sys;
    const mcm::video::UseCaseModel model(pt_.usecase);
    const StreamInputs in = stream_inputs(pt_.sys, pt_.sim.load);
    const mcm::video::SurfaceLayout layout(model, in.align);
    wl = load::StreamCache::generate(model, layout, in.load);
  }

 private:
  static constexpr std::size_t kSetupRepeats = 201;
  VideoPoint pt_;
};

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "paper_grid") return std::make_unique<PaperGrid>(opt.quick);
  if (opt.workload == "uhd_8ch") return std::make_unique<Uhd8ch>(opt.quick);
  if (opt.workload == "mixed_random") {
    return std::make_unique<MixedRandom>(opt.quick, opt.seed, opt.work_dir);
  }
  if (opt.workload == "concurrent_display") {
    return std::make_unique<ConcurrentDisplay>(opt.quick);
  }
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The accuracy anchors for workloads whose own points do not cover them:
/// the anchor points through the orchestrator, outside the timed window.
std::map<std::string, double> anchor_probe(bool quick, std::vector<Op>& ops) {
  const explore::ExperimentSpec spec = grid_spec(quick);
  std::vector<explore::ExplorePoint> points;
  for (const auto& p : spec.expand()) {
    for (const Anchor& a : kAnchors) {
      if (p.level == a.level && p.channels == a.channels) points.push_back(p);
    }
  }
  explore::OrchestratorOptions opt;
  opt.threads = pool_threads();
  const auto run = explore::Orchestrator(opt).run(spec, points);
  std::map<std::string, double> power;
  for (const auto& r : run.results) {
    const auto key = point_key(r.point.level, r.point.channels);
    power[key] = r.sim.total_power_mw;
    ops.push_back({"grid/" + key,
                   digest_of(export_video(r.point.system(spec.base),
                                          r.point.usecase(spec.base), r.sim)),
                   ""});
  }
  return power;
}

void add_metric(Report& rep, const std::string& name, double value,
                const std::string& unit) {
  rep.metrics.push_back({name, value, unit});
}

Report timed_run(Workload& wl, const Options& opt) {
  Report rep;
  wl.prepare();
  std::vector<double> wall, setup, rate;
  std::uint64_t requests = 0;
  std::map<std::string, double> power;
  const int count =
      opt.quick ? 1 : std::max(1, static_cast<int>(opt.seconds / wl.nominal_s()));
  for (int i = 0; i < count; ++i) {
    Iteration it = wl.iterate(nullptr);
    wall.push_back(it.wall_s);
    setup.push_back(it.setup_s);
    rate.push_back(static_cast<double>(it.requests) / (it.wall_s - it.setup_s));
    requests = it.requests;
    power = it.power_mw;
    for (auto& op : it.ops) rep.ops.push_back(std::move(op));
  }
  const double rss = peak_rss_mb();
  if (!wl.has_anchors()) power = anchor_probe(opt.quick, rep.ops);

  add_metric(rep, "wall_s", median(wall), "s");
  add_metric(rep, "setup_s", median(setup), "s");
  add_metric(rep, "sim_req_per_s", median(rate), "req/s");
  add_metric(rep, "peak_rss_mb", rss, "MB");
  add_metric(rep, "paper_power_err_pct", anchor_error_pct(power), "%");

  JsonValue samples = JsonValue::object();
  const auto arr = [](const std::vector<double>& v) {
    JsonValue a = JsonValue::array();
    for (double x : v) a.push(x);
    return a;
  };
  samples["wall_s"] = arr(wall);
  samples["setup_s"] = arr(setup);
  samples["sim_req_per_s"] = arr(rate);
  rep.info["iterations"] = static_cast<std::uint64_t>(wall.size());
  rep.info["requests_per_iteration"] = requests;
  rep.info["samples"] = std::move(samples);
  return rep;
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> kLayers = {
      "load", "workload", "core", "multichannel", "controller", "dram",
      "explore", "exec"};
  return kLayers;
}

double phase_wall_s(const prof::ProfileReport& p, std::string_view name) {
  const auto* ph = p.find(name);
  return ph != nullptr ? static_cast<double>(ph->wall_ns) * 1e-9 : 0.0;
}
double phase_calls(const prof::ProfileReport& p, std::string_view name) {
  const auto* ph = p.find(name);
  return ph != nullptr ? static_cast<double>(ph->calls) : 0.0;
}

Report traced_run(Workload& wl, const Options& opt) {
  Report rep;
  wl.prepare();
  // The first iteration of a process also pays first-touch page faults, so
  // it only warms up; the untraced reference is the iteration after the
  // traced one.
  for (auto& op : wl.iterate(nullptr).ops) rep.ops.push_back(std::move(op));

  SpanLog log;
  prof::set_enabled(true);
  (void)prof::collect(/*reset=*/true);
  Iteration traced;
  int root = 0;
  double traced_wall = 0;
  {
    auto s = span(&log, "bench.iteration");
    root = static_cast<int>(log.spans().size()) - 1;
    traced = wl.iterate(&log);
    traced_wall = s.stop();
  }
  const prof::ProfileReport profile = prof::collect(/*reset=*/true);
  prof::set_enabled(false);
  for (const auto& op : traced.ops) rep.ops.push_back(op);
  const Iteration untraced = wl.iterate(nullptr);
  for (const auto& op : untraced.ops) rep.ops.push_back(op);

  Layers L;
  // Defaults for layers a workload does not exercise (see README.md).
  for (const char* name :
       {"load.stream_build_s", "load.stream_requests", "load.stream_mb",
        "load.meta_build_s", "load.meta_mb", "load.cache_hit_ratio",
        "load.live_sources_s", "workload.trace_parse_s", "workload.compile_s",
        "workload.requests", "core.frame_run_s", "core.engine_s",
        "core.finalize_s", "core.export_s", "core.simt_speedup",
        "explore.point_s_p50", "explore.point_s_max", "explore.work_s",
        "explore.grid_efficiency", "multichannel.route_imbalance"}) {
    L[name] = 0;
  }
  L["load.stream_build_s"] = log.self_seconds("load.stream_build");
  L["load.meta_build_s"] = log.self_seconds("load.meta_build");
  L["workload.compile_s"] = log.self_seconds("workload.compile");
  L["core.frame_run_s"] = log.self_seconds("core.frame_run") +
                            log.self_seconds("core.engine") +
                            log.self_seconds("core.finalize");
  L["core.engine_s"] = log.self_seconds("core.engine");
  L["core.finalize_s"] = log.self_seconds("core.finalize");
  L["core.export_s"] = log.self_seconds("core.export");
  if (L["core.engine_s"] == 0) {
    // The legacy feed loop is reachable only through FrameSimulator::run;
    // its split comes from the program's own sim/* phases.
    L["core.engine_s"] = phase_wall_s(profile, "sim/feed") + phase_wall_s(profile, "sim/drain");
    L["core.finalize_s"] = phase_wall_s(profile, "sim/finalize");
  }
  const double coverage = log.layer_self_seconds_under(root, layer_names()) / traced_wall;

  {
    // Spans from here on are outside the coverage window.
    auto s = span(&log, "bench.extras");
    wl.extras(traced, log, L, rep.ops);
  }

  ReplayStats rs;
  {
    auto s = span(&log, "multichannel.replay");
    mc::SystemConfig cfg;
    std::shared_ptr<const load::CachedWorkload> stream;
    wl.replay_input(cfg, stream);
    rs = replay(cfg, *stream, opt.quick ? 200'000 : 2'000'000);
  }

  // Engine protocol counters (the program's engine/* phases).
  double wait_s = 0;
  for (const auto& ph : profile.phases) {
    const std::string& n = ph.name;
    if (n.rfind("engine/w", 0) == 0 &&
        (n.ends_with("/barrier_wait") || n.ends_with("/handoff_wait") ||
         n.ends_with("/ring_full_wait"))) {
      wait_s += static_cast<double>(ph.wall_ns) * 1e-9;
    }
  }
  const SimTotals& t = traced.totals;
  const double acc = static_cast<double>(std::max<std::uint64_t>(1, t.accesses));
  const auto* arb = profile.find("ctrl/arbitration");

  for (const auto& [name, value] : L) {
    std::string unit = "s";
    if (name.ends_with("_requests") || name == "workload.requests") unit = "count";
    else if (name.ends_with("_mb")) unit = "MB";
    else if (name.ends_with("_ratio") || name.ends_with("_imbalance") ||
             name.ends_with("_efficiency")) unit = "ratio";
    else if (name.ends_with("_speedup")) unit = "x";
    add_metric(rep, name, value, unit);
  }
  add_metric(rep, "core.engine.proven_frac",
             phase_calls(profile, "engine/proven_positions") / acc, "ratio");
  add_metric(rep, "core.engine.rollbacks", phase_calls(profile, "engine/rollback"), "count");
  add_metric(rep, "core.engine.serial_s", phase_wall_s(profile, "engine/serial_step"), "s");
  add_metric(rep, "core.engine.wait_s", wait_s, "s");
  add_metric(rep, "multichannel.submit_ns_p50", rs.submit_p50, "ns");
  add_metric(rep, "multichannel.submit_ns_p99", rs.submit_p99, "ns");
  add_metric(rep, "multichannel.process_next_ns_p50", rs.next_p50, "ns");
  add_metric(rep, "multichannel.process_next_ns_p99", rs.next_p99, "ns");
  add_metric(rep, "multichannel.submit_retry_ratio", rs.retry_ratio, "ratio");
  add_metric(rep, "controller.arbitration_frac",
             phase_calls(profile, "ctrl/arbitration") / acc, "ratio");
  add_metric(rep, "controller.arbitration_ns_p50", arb != nullptr ? arb->p50 : 0.0, "ns");
  add_metric(rep, "controller.row_hit_rate", static_cast<double>(t.row_hits) / acc, "ratio");
  add_metric(rep, "controller.row_conflict_rate",
             static_cast<double>(t.row_conflicts) / acc, "ratio");
  add_metric(rep, "controller.queue_depth_p95",
             t.queue_depth ? t.queue_depth->percentile(0.95) : 0.0, "requests");
  add_metric(rep, "controller.latency_ns_p99",
             t.latency ? t.latency->percentile(0.99) : 0.0, "sim_ns");
  add_metric(rep, "dram.activates", static_cast<double>(t.activates), "count");
  add_metric(rep, "dram.refreshes", static_cast<double>(t.refreshes), "count");
  add_metric(rep, "dram.powerdown_entries", static_cast<double>(t.pd_entries), "count");
  add_metric(rep, "dram.selfrefresh_entries", static_cast<double>(t.sr_entries), "count");
  add_metric(rep, "dram.ledger_flush_s", phase_wall_s(profile, "ctrl/ledger_flush"), "s");
  add_metric(rep, "trace.coverage", coverage, "ratio");
  add_metric(rep, "trace.overhead", traced_wall / untraced.wall_s - 1.0, "ratio");

  rep.info["traced_wall_s"] = traced_wall;
  rep.info["untraced_wall_s"] = untraced.wall_s;
  if (coverage < 0.95) {
    rep.ops.push_back({"trace/coverage", "",
                       "layer spans cover " + std::to_string(coverage) +
                           " of the traced wall (< 0.95)"});
  }
  if (!opt.spans_path.empty()) {
    std::ofstream out(opt.spans_path);
    log.write_chrome_trace(out);
    if (!out) throw std::runtime_error("cannot write " + opt.spans_path);
  }
  return rep;
}

}  // namespace

Report run_workload(const Options& opt) {
  const auto wl = make_workload(opt);
  return opt.trace ? traced_run(*wl, opt) : timed_run(*wl, opt);
}

std::vector<Op> pin_workload(const Options& opt) {
  const auto wl = make_workload(opt);
  wl->prepare();
  return wl->iterate(nullptr).ops;
}

}  // namespace perfbench
