#include "load/stream_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "common/log.hpp"
#include "load/multi_stream_source.hpp"
#include "multichannel/interleaver.hpp"

namespace mcm::load {
namespace {

// Soft cap on resident cached streams: one 2160p30 format is 34.0 M requests
// (272 MB); the cap fits every paper figure with slack while bounding a
// pathological sweep over many distinct formats. New workloads beyond the
// cap are generated but not retained; chunk metadata shares the same cap.
constexpr std::uint64_t kMaxCachedBytes = std::uint64_t{2} << 30;

std::string make_key(const video::UseCaseParams& p, std::uint64_t alignment,
                     const LoadOptions& opt) {
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "l%d z%.17g b%.17g a%.17g e%.17g rp%d d%ux%u@%.17g al%llu c%u bu%u mw%d",
      static_cast<int>(p.level), p.digizoom, p.stabilization_border,
      p.audio_mbps, p.encoder_ref_factor, static_cast<int>(p.ref_policy),
      p.display.width, p.display.height, p.display_refresh_hz,
      static_cast<unsigned long long>(alignment), opt.chunk_bytes,
      opt.burst_bytes, opt.motion_window_encoder ? 1 : 0);
  std::string key = buf;
  // Only the motion-window encoder reads the seed; every other stream is the
  // same for every seed, so the seed would only split identical entries.
  if (opt.motion_window_encoder) key += " s" + std::to_string(opt.seed);
  return key;
}

std::string make_meta_key(const std::string& workload_key,
                          std::size_t stage_index, std::uint32_t channels,
                          std::uint32_t granularity) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "#meta s%llu c%u g%u",
                static_cast<unsigned long long>(stage_index), channels,
                granularity);
  return workload_key + buf;
}

/// Enumerate `src` into `stage` one request at a time (any source).
void fill_stage_generic(TrafficSource& src, CachedStage& stage) {
  while (!src.done()) {
    const ctrl::Request r = src.head();
    src.advance();
    if (stage.reqs.empty()) stage.source_id = r.source;
    stage.reqs.push_back(CachedStage::pack(r.addr, r.is_write));
  }
}

std::shared_ptr<CachedWorkload> build_video_workload(
    const video::UseCaseModel& model, const video::SurfaceLayout& layout,
    const LoadOptions& opt) {
  static const obs::prof::PhaseId kBuild =
      obs::prof::phase_id("stream_cache/build");
  obs::prof::ScopedTimer span(kBuild);
  auto wl = std::make_shared<CachedWorkload>();
  wl->burst_bytes = opt.burst_bytes;
  auto sources = build_stage_sources(model, layout, opt);
  wl->stages.reserve(sources.size());
  for (auto& src : sources) {
    CachedStage stage;
    stage.name = std::string(src->name());
    src->set_start(Time::zero());
    // One request per device burst, so the request count is known up front.
    stage.reqs.reserve(src->total_bytes() / std::max(1u, opt.burst_bytes));
    if (auto* ms = dynamic_cast<MultiStreamSource*>(src.get())) {
      // Stream stages (all but the motion-window encoder) emit run by run.
      if (!ms->done()) stage.source_id = ms->head().source;
      ms->drain([&stage](std::uint64_t addr, bool is_write) {
        stage.reqs.push_back(CachedStage::pack(addr, is_write));
      });
    } else {
      fill_stage_generic(*src, stage);
    }
    wl->total_requests += stage.reqs.size();
    wl->stages.push_back(std::move(stage));
  }
  return wl;
}

}  // namespace

std::uint64_t ChunkMeta::count_in(std::uint32_t channel, std::uint64_t a,
                                  std::uint64_t b) const {
  const std::vector<std::uint32_t>& pos = pos_of[channel];
  const auto lo = std::lower_bound(pos.begin(), pos.end(),
                                   static_cast<std::uint32_t>(a));
  const auto hi = std::lower_bound(lo, pos.end(), static_cast<std::uint32_t>(b));
  return static_cast<std::uint64_t>(hi - lo);
}

std::shared_ptr<const ChunkMeta> ChunkMeta::build(const CachedStage& stage,
                                                  std::uint32_t channels,
                                                  std::uint32_t granularity) {
  static const obs::prof::PhaseId kBuild =
      obs::prof::phase_id("stream_cache/meta_build");
  obs::prof::ScopedTimer span(kBuild);
  auto meta = std::make_shared<ChunkMeta>();
  const std::size_t n = stage.reqs.size();
  meta->chan.resize(n);
  meta->pos_of.resize(channels);
  if (channels > 0) {
    for (auto& v : meta->pos_of) v.reserve(n / channels + 1);
  }
  const multichannel::Interleaver il(channels, granularity);
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t c =
        il.route(CachedStage::addr_of(stage.reqs[p])).channel;
    meta->chan[p] = static_cast<std::uint8_t>(c);
    meta->pos_of[c].push_back(static_cast<std::uint32_t>(p));
  }
  return meta;
}

StreamCache& StreamCache::instance() {
  static StreamCache cache;
  return cache;
}

bool StreamCache::enabled() {
  const char* env = std::getenv("MCM_STREAM_CACHE");
  if (env == nullptr) return true;
  const std::string v(env);
  return !(v == "off" || v == "OFF" || v == "0");
}

std::shared_ptr<const CachedWorkload> StreamCache::generate(
    const video::UseCaseModel& model, const video::SurfaceLayout& layout,
    const LoadOptions& opt) {
  return build_video_workload(model, layout, opt);
}

void StreamCache::warn_capped_locked(const std::string& key,
                                     std::uint64_t bytes) {
  if (!capped_warned_.insert(key).second) return;
  MCM_LOG_WARN(
      "stream cache soft cap (%llu B) reached; not retaining %llu B for key "
      "'%s' (regenerated per run)",
      static_cast<unsigned long long>(kMaxCachedBytes),
      static_cast<unsigned long long>(bytes), key.c_str());
}

template <class T, class Build>
typename StreamCache::Table<T>::Ptr StreamCache::memo(
    Table<T>& table, const std::string& key, obs::prof::PhaseId hit,
    obs::prof::PhaseId miss, const Build& build) {
  using Ptr = typename Table<T>::Ptr;
  std::unique_lock lock(mutex_);
  if (const auto it = table.done.find(key); it != table.done.end()) {
    obs::prof::count(hit, 1);
    return it->second;
  }
  if (const auto it = table.building.find(key); it != table.building.end()) {
    const std::shared_future<Ptr> pending = it->second;
    lock.unlock();
    obs::prof::count(hit, 1);
    return pending.get();  // rethrows the builder's exception
  }
  std::promise<Ptr> promise;
  table.building.emplace(key, promise.get_future().share());
  lock.unlock();
  obs::prof::count(miss, 1);

  Ptr built;
  try {
    built = build();
  } catch (...) {
    lock.lock();
    table.building.erase(key);
    lock.unlock();
    promise.set_exception(std::current_exception());
    throw;
  }
  lock.lock();
  table.building.erase(key);
  const std::uint64_t fp = built->footprint_bytes();
  if (streams_.bytes + metas_.bytes + fp <= kMaxCachedBytes) {
    table.bytes += fp;
    table.done.emplace(key, built);
  } else {
    warn_capped_locked(key, fp);
  }
  lock.unlock();
  promise.set_value(built);
  return built;
}

std::shared_ptr<const CachedWorkload> StreamCache::get(
    const video::UseCaseModel& model, const video::SurfaceLayout& layout,
    std::uint64_t alignment, const LoadOptions& opt) {
  return get_keyed(make_key(model.params(), alignment, opt),
                   [&] { return build_video_workload(model, layout, opt); });
}

std::shared_ptr<const CachedWorkload> StreamCache::get_keyed(
    const std::string& key,
    const std::function<std::shared_ptr<CachedWorkload>()>& build) {
  if (!enabled()) return build();
  static const obs::prof::PhaseId kHit = obs::prof::phase_id("stream_cache/hit");
  static const obs::prof::PhaseId kMiss =
      obs::prof::phase_id("stream_cache/miss");
  return memo(streams_, key, kHit, kMiss,
              [&]() -> std::shared_ptr<const CachedWorkload> {
                auto wl = build();
                wl->key = key;
                return wl;
              });
}

std::shared_ptr<const ChunkMeta> StreamCache::chunk_meta(
    const CachedWorkload& wl, std::size_t stage_index, std::uint32_t channels,
    std::uint32_t granularity) {
  if (wl.key.empty() || !enabled()) {
    return ChunkMeta::build(wl.stages[stage_index], channels, granularity);
  }
  static const obs::prof::PhaseId kHit =
      obs::prof::phase_id("stream_cache/meta_hit");
  static const obs::prof::PhaseId kMiss =
      obs::prof::phase_id("stream_cache/meta_miss");
  return memo(metas_, make_meta_key(wl.key, stage_index, channels, granularity),
              kHit, kMiss, [&] {
                return ChunkMeta::build(wl.stages[stage_index], channels,
                                        granularity);
              });
}

void StreamCache::clear() {
  std::lock_guard lock(mutex_);
  streams_.done.clear();
  metas_.done.clear();
  streams_.bytes = 0;
  metas_.bytes = 0;
  capped_warned_.clear();
}

std::uint64_t StreamCache::cached_bytes() {
  std::lock_guard lock(mutex_);
  return streams_.bytes + metas_.bytes;
}

StreamCacheStats StreamCache::stats() {
  std::lock_guard lock(mutex_);
  StreamCacheStats s;
  s.stream_bytes = streams_.bytes;
  s.meta_bytes = metas_.bytes;
  s.stream_entries = streams_.done.size();
  s.meta_entries = metas_.done.size();
  return s;
}

}  // namespace mcm::load
