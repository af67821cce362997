// Workload stream cache: the per-frame request stream of a use-case format
// is a pure function of (UseCaseParams, surface alignment, LoadOptions) —
// addresses and ordering are channel-count and frequency invariant because
// surfaces are aligned to a whole interleave stripe and requests in the
// paper's state-machine mode all arrive at the stage start. Generating it
// through the load models costs a large share of a grid point's wall clock,
// so the cache enumerates each format once and replays the flat arrays into
// every grid point that shares it (all Fig. 3 frequency points, every
// channel count of a Fig. 4 row).
//
// Key contract: the key holds every LoadOptions field that shapes the
// stream. LoadOptions::seed counts only when motion_window_encoder is set —
// the motion-window encoder is the only source that reads it — so grid
// points that differ only in seed share one entry.
//
// Builds are single-flight: a miss on a key another thread is already
// building waits for that build (and counts as a hit) instead of building a
// second copy. A build that throws hands its exception to every waiter and
// retains nothing, so the next call retries.
//
// A cached request packs (global byte address | is_write) into one word;
// stage name / source id / ordering are preserved so the frame simulator
// can reproduce its bookkeeping exactly. Disable with MCM_STREAM_CACHE=off
// (every run then enumerates the load models directly, same results).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "load/usecase_sources.hpp"
#include "obs/prof.hpp"
#include "video/surfaces.hpp"
#include "video/usecase.hpp"

namespace mcm::load {

struct CachedStage {
  std::string name;
  std::uint16_t source_id = 0xffff;  // 0xffff = stage emitted no requests
  std::vector<std::uint64_t> reqs;   // addr | (is_write << 63), stream order

  static constexpr std::uint64_t kWriteBit = std::uint64_t{1} << 63;
  [[nodiscard]] static std::uint64_t pack(std::uint64_t addr, bool is_write) {
    return addr | (is_write ? kWriteBit : 0);
  }
  [[nodiscard]] static std::uint64_t addr_of(std::uint64_t packed) {
    return packed & (kWriteBit - 1);
  }
  [[nodiscard]] static bool is_write_of(std::uint64_t packed) {
    return (packed & kWriteBit) != 0;
  }
};

/// Replays one cached stage as a TrafficSource, every request arriving at
/// the stage start (the state-machine load model). The stage must outlive
/// the source.
class CachedStageSource final : public TrafficSource {
 public:
  CachedStageSource(const CachedStage& stage, std::uint32_t burst_bytes)
      : stage_(stage), burst_(burst_bytes) {}

  [[nodiscard]] bool done() const override { return pos_ == stage_.reqs.size(); }
  [[nodiscard]] ctrl::Request head() const override {
    const std::uint64_t packed = stage_.reqs[pos_];
    ctrl::Request r;
    r.addr = CachedStage::addr_of(packed);  // global; submit routes
    r.is_write = CachedStage::is_write_of(packed);
    r.arrival = start_;
    r.source = stage_.source_id;
    return r;
  }
  void advance() override { ++pos_; }
  [[nodiscard]] std::uint64_t total_bytes() const override {
    return stage_.reqs.size() * burst_;
  }
  [[nodiscard]] std::string_view name() const override { return stage_.name; }
  void set_start(Time t) override { start_ = t; }

 private:
  const CachedStage& stage_;
  std::uint32_t burst_;
  std::size_t pos_ = 0;
  Time start_ = Time::zero();
};

struct CachedWorkload {
  std::vector<CachedStage> stages;  // Fig. 1 processing order
  std::uint32_t burst_bytes = 0;
  std::uint64_t total_requests = 0;
  // Cache key this workload was memoized under; empty when the workload was
  // generated uncached (MCM_STREAM_CACHE=off or direct generate() calls).
  // Chunk metadata derives its own key from this one, so it is invalidated
  // exactly when the stream is.
  std::string key;

  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return total_requests * sizeof(std::uint64_t);
  }
};

/// Per-stage chunk metadata for the epoch-batched sharded engine: the
/// channel of every position of the flat request array under a given
/// interleave (channels, granularity), plus per-channel sorted position
/// lists. Workers use pos_of to speculate over their own channels' positions
/// only; the chunk scheduler uses count_in to prove no-stall horizons
/// (occupancy + incoming <= queue depth).
struct ChunkMeta {
  std::vector<std::uint8_t> chan;                  // channel of each position
  std::vector<std::vector<std::uint32_t>> pos_of;  // per channel, ascending

  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return chan.size() * (sizeof(std::uint8_t) + sizeof(std::uint32_t));
  }

  /// Number of positions routed to `channel` in stream range [a, b).
  [[nodiscard]] std::uint64_t count_in(std::uint32_t channel, std::uint64_t a,
                                       std::uint64_t b) const;

  /// Route every position of `stage` under (channels, granularity) with
  /// multichannel::Interleaver::route. Requires channels <= 255 (the byte
  /// routing table); the engine runs a system with more channels on one
  /// worker, which needs no metadata.
  [[nodiscard]] static std::shared_ptr<const ChunkMeta> build(
      const CachedStage& stage, std::uint32_t channels,
      std::uint32_t granularity);
};

/// Resident byte counters, split by kind (streams vs chunk metadata).
struct StreamCacheStats {
  std::uint64_t stream_bytes = 0;
  std::uint64_t meta_bytes = 0;
  std::uint64_t stream_entries = 0;
  std::uint64_t meta_entries = 0;
};

class StreamCache {
 public:
  /// The process-wide cache (shared across exploration grid points).
  static StreamCache& instance();

  /// Cached enumeration of one frame's stage streams. `alignment` must be
  /// the value the SurfaceLayout was built with (it is part of the key).
  /// Honors MCM_STREAM_CACHE=off by generating without memoizing.
  std::shared_ptr<const CachedWorkload> get(const video::UseCaseModel& model,
                                            const video::SurfaceLayout& layout,
                                            std::uint64_t alignment,
                                            const LoadOptions& opt);

  /// Uncached enumeration through the real load models.
  [[nodiscard]] static std::shared_ptr<const CachedWorkload> generate(
      const video::UseCaseModel& model, const video::SurfaceLayout& layout,
      const LoadOptions& opt);

  /// Keyed memoization for non-video frontends (workload/): the cached
  /// workload for `key`, built with `build` on first use. Callers must make
  /// `key` a pure function of everything `build` depends on. Honors
  /// MCM_STREAM_CACHE=off and the byte cap like get(). The builder returns a
  /// mutable workload so the cache can stamp the key on it.
  std::shared_ptr<const CachedWorkload> get_keyed(
      const std::string& key,
      const std::function<std::shared_ptr<CachedWorkload>()>& build);

  /// Chunk metadata for one stage of `wl` under an interleave, memoized
  /// alongside the stream when the workload itself was cached (wl.key set);
  /// built fresh otherwise. Counts toward the same soft byte cap.
  std::shared_ptr<const ChunkMeta> chunk_meta(const CachedWorkload& wl,
                                              std::size_t stage_index,
                                              std::uint32_t channels,
                                              std::uint32_t granularity);

  /// False when MCM_STREAM_CACHE is "off" or "0" (checked per call so tests
  /// can toggle it).
  [[nodiscard]] static bool enabled();

  /// Drop every cached workload (tests).
  void clear();

  [[nodiscard]] std::uint64_t cached_bytes();
  [[nodiscard]] StreamCacheStats stats();

 private:
  /// One kind of entry (streams or chunk metadata): the retained entries,
  /// the builds in flight, and the retained bytes.
  template <class T>
  struct Table {
    using Ptr = std::shared_ptr<const T>;
    std::unordered_map<std::string, Ptr> done;
    std::unordered_map<std::string, std::shared_future<Ptr>> building;
    std::uint64_t bytes = 0;
  };

  /// The memo routine behind get/get_keyed/chunk_meta: the entry for `key`
  /// in `table`, built by `build()` outside the mutex on first use. A call
  /// that finds the key in flight waits for that build (a hit). A build that
  /// throws rethrows to its caller and every waiter and retains nothing.
  template <class T, class Build>
  typename Table<T>::Ptr memo(Table<T>& table, const std::string& key,
                              obs::prof::PhaseId hit, obs::prof::PhaseId miss,
                              const Build& build);

  void warn_capped_locked(const std::string& key, std::uint64_t bytes);

  // Entries are immutable once built; the mutex only guards the tables.
  std::mutex mutex_;
  Table<CachedWorkload> streams_;
  Table<ChunkMeta> metas_;
  std::unordered_set<std::string> capped_warned_;
};

}  // namespace mcm::load
