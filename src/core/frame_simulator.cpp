#include "core/frame_simulator.hpp"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "common/log.hpp"
#include "load/stream_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace mcm::core {
namespace {

bool is_paced_stage(const load::TrafficSource& src) {
  return src.name() == "DisplayCtrl" || src.name() == "Audio capture";
}

/// Sweeps re-run the same oversized use case for every grid point; warn
/// once per distinct (working set, capacity) pair instead of per run.
void warn_capacity_once(std::uint64_t working_set, std::uint64_t capacity) {
  static std::mutex mutex;
  static std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  {
    std::lock_guard lock(mutex);
    if (!seen.insert({working_set, capacity}).second) return;
  }
  MCM_LOG_WARN("use-case working set (%llu B) exceeds memory capacity (%llu B); "
               "addresses wrap",
               static_cast<unsigned long long>(working_set),
               static_cast<unsigned long long>(capacity));
}

}  // namespace

FrameSimResult FrameSimulator::run(const multichannel::SystemConfig& system,
                                   const video::UseCaseParams& usecase) const {
  if (opt_.profile) obs::prof::set_enabled(true);
  if (!obs::prof::enabled()) return run_impl(system, usecase);

  FrameSimResult result;
  {
    static const obs::prof::PhaseId kRun = obs::prof::phase_id("sim/run");
    obs::prof::ScopedTimer span(kRun);
    result = run_impl(system, usecase);
  }
  if (!opt_.prof_path.empty() || !opt_.prof_trace_path.empty()) {
    const obs::prof::ProfileReport report = obs::prof::collect(/*reset=*/true);
    if (!opt_.prof_path.empty()) {
      std::ofstream out(opt_.prof_path);
      if (out) {
        report.to_json(/*with_spans=*/true).dump(out);
        out << '\n';
      } else {
        MCM_LOG_WARN("cannot open profile file '%s'", opt_.prof_path.c_str());
      }
    }
    if (!opt_.prof_trace_path.empty()) {
      std::ofstream out(opt_.prof_trace_path);
      if (out) {
        report.write_chrome_trace(out);
      } else {
        MCM_LOG_WARN("cannot open trace-events file '%s'",
                     opt_.prof_trace_path.c_str());
      }
    }
  }
  return result;
}

FrameSimResult assemble_result(multichannel::MemorySystem& sys,
                               const ShardedRunOutput& out, Time period,
                               double demand_bps, double processing_margin) {
  const auto frames = static_cast<std::int64_t>(out.per_frame_access.size());
  const Time window = max(out.end_time, period * frames);
  {
    static const obs::prof::PhaseId kFinalize =
        obs::prof::phase_id("sim/finalize");
    obs::prof::ScopedTimer span(kFinalize);
    sys.finalize(window);
  }

  FrameSimResult r;
  r.frame_period = period;
  r.window = window;
  r.access_time = Time{frames > 0 ? out.access_accum.ps() / frames : 0};
  r.per_frame_access = out.per_frame_access;
  r.bytes_per_frame = out.bytes_first_frame;
  r.stage_results = out.first_frame_stages;
  r.paced_last_done = out.paced_last_done;
  r.paced_latency_ns = out.paced_latency_ns;
  r.meets_realtime = r.access_time <= period;
  r.meets_realtime_with_margin =
      r.access_time.seconds() <= period.seconds() * (1.0 - processing_margin);
  r.achieved_bandwidth_bytes_per_s =
      r.access_time > Time::zero()
          ? static_cast<double>(r.bytes_per_frame) / r.access_time.seconds()
          : 0.0;
  r.demand_bandwidth_bytes_per_s = demand_bps;
  r.stats = sys.stats();
  r.power = sys.power(window);
  r.dram_power_mw = r.power.dram_mw;
  r.interface_power_mw = r.power.interface_mw;
  r.total_power_mw = r.power.total_mw;
  return r;
}

FrameSimResult FrameSimulator::run_impl(
    const multichannel::SystemConfig& system,
    const video::UseCaseParams& usecase) const {
  assert(opt_.frames >= 1);
  const video::UseCaseModel model(usecase);

  multichannel::MemorySystem sys(system);
  const std::uint64_t align = system.stripe_alignment();
  const video::SurfaceLayout layout(model, align);
  if (layout.total_bytes() > sys.capacity_bytes()) {
    warn_capacity_once(layout.total_bytes(), sys.capacity_bytes());
  }

  // Opt-in structured tracing; writers must outlive all channel activity
  // (finalize still issues PRE/REF/PDE commands into them).
  std::ofstream trace_file;
  bool tracing = false;
  if (!opt_.trace_path.empty()) {
    trace_file.open(opt_.trace_path);
    if (trace_file) {
      tracing = true;
    } else {
      MCM_LOG_WARN("cannot open trace file '%s'; tracing disabled",
                   opt_.trace_path.c_str());
    }
  }

  const Time period = model.frame_period();

  // One request = one device burst; the load granularity follows the device
  // (16 B for the paper's x32 BL4 DDR, 64 B for a wide SDR interface).
  load::LoadOptions load_opt = opt_.load;
  load_opt.burst_bytes = system.device.org.bytes_per_burst();
  load_opt.chunk_bytes = std::max(load_opt.chunk_bytes, load_opt.burst_bytes);

  // GOP structure: I frames carry no encoder reference traffic.
  std::unique_ptr<video::UseCaseModel> intra_model;
  if (opt_.gop_length > 1) {
    video::UseCaseParams intra_params = usecase;
    intra_params.encoder_ref_factor = 0.0;
    intra_model = std::make_unique<video::UseCaseModel>(intra_params);
  }
  const auto is_intra = [&](std::size_t f) {
    return intra_model != nullptr &&
           f % static_cast<std::size_t>(opt_.gop_length) == 0;
  };

  // Per-channel trace spools for the sharded engine (each written by exactly
  // one worker), merged into canonical order after finalize. The sequential
  // feed's streaming sink also lives here so it outlives finalize's trailing
  // PRE/REF/PDE commands.
  std::vector<obs::TraceSpool> spools;
  std::unique_ptr<obs::TraceSink> trace;

  ShardedRunOutput out;
  if (opt_.mode == ExecutionMode::kStateMachine) {
    // The memoized per-frame request stream: one enumeration per format,
    // replayed into every grid point that shares it.
    auto& cache = load::StreamCache::instance();
    std::shared_ptr<const load::CachedWorkload> workload;
    std::shared_ptr<const load::CachedWorkload> intra_workload;
    {
      static const obs::prof::PhaseId kLoad =
          obs::prof::phase_id("sim/load_build");
      obs::prof::ScopedTimer span(kLoad);
      workload = cache.get(model, layout, align, load_opt);
      if (intra_model != nullptr) {
        intra_workload = cache.get(*intra_model, layout, align, load_opt);
      }
    }
    std::vector<const load::CachedWorkload*> frames(
        static_cast<std::size_t>(opt_.frames), workload.get());
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (is_intra(f)) frames[f] = intra_workload.get();
    }
    if (tracing) {
      spools = std::vector<obs::TraceSpool>(sys.channel_count());
      for (std::uint32_t c = 0; c < sys.channel_count(); ++c) {
        sys.attach_trace(&spools[c], c);
      }
    }

    static const obs::prof::PhaseId kEngine = obs::prof::phase_id("sim/engine");
    obs::prof::ScopedTimer engine_span(kEngine);
    out = run_sharded_frames(sys, frames, period, opt_.sim_threads,
                             opt_.sim_chunk);
  } else {
    if (tracing) {
      trace = std::make_unique<obs::TraceSink>(trace_file,
                                               opt_.trace_buffer_events);
      sys.attach_trace(trace.get());
    }
    // Live sources, one frame at a time: the display and audio run as paced
    // masters beside the pipeline stages.
    out = run_sequential_frames(
        sys, static_cast<std::size_t>(opt_.frames),
        [&](std::size_t f) {
          std::vector<FeedSource> sources;
          for (auto& src : load::build_stage_sources(
                   is_intra(f) ? *intra_model : model, layout, load_opt)) {
            const bool paced = is_paced_stage(*src);
            sources.push_back({std::move(src), paced});
          }
          return sources;
        },
        period);
  }

  FrameSimResult result =
      assemble_result(sys, out, period, model.total_mb_per_second() * 1e6,
                      opt_.processing_margin);

  if (!spools.empty()) {
    static const obs::prof::PhaseId kMerge =
        obs::prof::phase_id("sim/trace_merge");
    obs::prof::ScopedTimer span(kMerge);
    std::vector<const obs::TraceSpool*> refs;
    refs.reserve(spools.size());
    for (const auto& s : spools) refs.push_back(&s);
    obs::merge_trace_spools(refs, trace_file);
  }
  if (opt_.metrics != nullptr) sys.collect_metrics(*opt_.metrics);
  return result;
}

}  // namespace mcm::core
