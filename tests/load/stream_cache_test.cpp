// The workload stream cache must be a transparent memoization layer: the
// cached enumeration replays exactly what the live load models emit, keys
// distinguish every parameter that changes the stream (and nothing else),
// concurrent misses on one key build once, and the MCM_STREAM_CACHE=off
// escape hatch bypasses retention without changing content.
#include "load/stream_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <stdexcept>
#include <thread>

#include "video/surfaces.hpp"
#include "video/usecase.hpp"

namespace mcm::load {
namespace {

constexpr std::uint64_t kAlign = 64 * 1024;

video::UseCaseParams params(video::H264Level level = video::H264Level::k31) {
  video::UseCaseParams p;
  p.level = level;
  return p;
}

struct Format {
  video::UseCaseModel model;
  video::SurfaceLayout layout;

  explicit Format(const video::UseCaseParams& p)
      : model(p), layout(model, kAlign) {}
};

TEST(StreamCache, CachedMatchesLiveEnumeration) {
  const Format f(params());
  LoadOptions opt;
  const auto cached = StreamCache::generate(f.model, f.layout, opt);

  auto sources = build_stage_sources(f.model, f.layout, opt);
  ASSERT_EQ(cached->stages.size(), sources.size());

  std::uint64_t total = 0;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const CachedStage& stage = cached->stages[s];
    TrafficSource& src = *sources[s];
    EXPECT_EQ(stage.name, src.name());
    src.set_start(Time::zero());
    std::size_t i = 0;
    while (!src.done()) {
      const ctrl::Request r = src.head();
      src.advance();
      ASSERT_LT(i, stage.reqs.size()) << stage.name;
      EXPECT_EQ(CachedStage::addr_of(stage.reqs[i]), r.addr);
      EXPECT_EQ(CachedStage::is_write_of(stage.reqs[i]), r.is_write);
      if (i == 0) {
        EXPECT_EQ(stage.source_id, r.source);
      }
      ++i;
    }
    EXPECT_EQ(i, stage.reqs.size()) << stage.name;
    total += i;
  }
  EXPECT_EQ(cached->total_requests, total);
  EXPECT_EQ(cached->burst_bytes, opt.burst_bytes);
}

TEST(StreamCache, GetMemoizesPerKey) {
  auto& cache = StreamCache::instance();
  cache.clear();
  const Format f(params());
  LoadOptions opt;

  const auto a = cache.get(f.model, f.layout, kAlign, opt);
  const auto b = cache.get(f.model, f.layout, kAlign, opt);
  EXPECT_EQ(a.get(), b.get()) << "same key must hit";
  EXPECT_EQ(cache.cached_bytes(), a->footprint_bytes());

  // The seed shapes no stream without the motion-window encoder, so it
  // alone forms no new key...
  LoadOptions seeded = opt;
  seeded.seed = 42;
  const auto c = cache.get(f.model, f.layout, kAlign, seeded);
  EXPECT_EQ(a.get(), c.get()) << "seed alone must share the entry";

  // ...but it does separate motion-window streams.
  LoadOptions window = opt;
  window.motion_window_encoder = true;
  window.seed = 1;
  const auto w1 = cache.get(f.model, f.layout, kAlign, window);
  window.seed = 42;
  const auto w42 = cache.get(f.model, f.layout, kAlign, window);
  EXPECT_NE(a.get(), w1.get());
  EXPECT_NE(w1.get(), w42.get());
  EXPECT_EQ(cache.stats().stream_entries, 3u);

  const Format heavier(params(video::H264Level::k40));
  const auto d = cache.get(heavier.model, heavier.layout, kAlign, opt);
  EXPECT_NE(a.get(), d.get());
  EXPECT_GT(d->total_requests, a->total_requests);

  cache.clear();
  EXPECT_EQ(cache.cached_bytes(), 0u);
}

TEST(StreamCache, ChunkMetaRoutesEveryPosition) {
  CachedStage stage;
  stage.name = "meta";
  stage.source_id = 1;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    stage.reqs.push_back(CachedStage::pack(i * 48, i % 2 == 0));
  }
  const std::uint32_t channels = 4, granularity = 128;
  const auto meta = ChunkMeta::build(stage, channels, granularity);
  ASSERT_EQ(meta->chan.size(), stage.reqs.size());
  std::uint64_t listed = 0;
  for (std::uint32_t c = 0; c < channels; ++c) {
    listed += meta->pos_of[c].size();
    for (std::size_t i = 0; i < meta->pos_of[c].size(); ++i) {
      EXPECT_EQ(meta->chan[meta->pos_of[c][i]], c);
      if (i > 0) {
        EXPECT_LT(meta->pos_of[c][i - 1], meta->pos_of[c][i]);
      }
    }
  }
  EXPECT_EQ(listed, stage.reqs.size());
  for (std::size_t p = 0; p < stage.reqs.size(); ++p) {
    const std::uint64_t addr = CachedStage::addr_of(stage.reqs[p]);
    EXPECT_EQ(meta->chan[p], (addr / granularity) % channels);
  }
  // count_in must agree with a direct scan on arbitrary sub-ranges.
  for (std::uint32_t c = 0; c < channels; ++c) {
    for (const auto& [a, b] :
         {std::pair<std::uint64_t, std::uint64_t>{0, 1000},
          {0, 1},
          {17, 401},
          {999, 1000},
          {500, 500}}) {
      std::uint64_t expect = 0;
      for (std::uint64_t p = a; p < b; ++p) expect += meta->chan[p] == c;
      EXPECT_EQ(meta->count_in(c, a, b), expect)
          << "c=" << c << " [" << a << "," << b << ")";
    }
  }
}

TEST(StreamCache, ChunkMetaMemoizedAndCounted) {
  auto& cache = StreamCache::instance();
  cache.clear();
  const Format f(params());
  LoadOptions opt;

  const auto wl = cache.get(f.model, f.layout, kAlign, opt);
  ASSERT_FALSE(wl->key.empty());
  const StreamCacheStats before = cache.stats();
  EXPECT_EQ(before.meta_entries, 0u);
  EXPECT_EQ(before.meta_bytes, 0u);

  const auto m1 = cache.chunk_meta(*wl, 0, 4, 128);
  const auto m2 = cache.chunk_meta(*wl, 0, 4, 128);
  EXPECT_EQ(m1.get(), m2.get()) << "same (key, stage, interleave) must hit";

  // A different interleave (or stage) is a different meta entry.
  const auto m3 = cache.chunk_meta(*wl, 0, 2, 128);
  EXPECT_NE(m1.get(), m3.get());

  const StreamCacheStats after = cache.stats();
  EXPECT_EQ(after.meta_entries, 2u);
  EXPECT_EQ(after.meta_bytes,
            m1->footprint_bytes() + m3->footprint_bytes());
  EXPECT_EQ(after.stream_bytes, wl->footprint_bytes());
  EXPECT_EQ(cache.cached_bytes(), after.stream_bytes + after.meta_bytes);

  // Uncached workloads (no key) still get correct metadata, just unretained.
  const auto loose = StreamCache::generate(f.model, f.layout, opt);
  EXPECT_TRUE(loose->key.empty());
  const auto m4 = cache.chunk_meta(*loose, 0, 4, 128);
  EXPECT_EQ(m4->chan, m1->chan);
  EXPECT_EQ(cache.stats().meta_entries, 2u) << "keyless meta is not retained";

  cache.clear();
  const StreamCacheStats cleared = cache.stats();
  EXPECT_EQ(cleared.stream_bytes + cleared.meta_bytes, 0u);
  EXPECT_EQ(cleared.stream_entries + cleared.meta_entries, 0u);
}

TEST(StreamCache, SeedShapesOnlyMotionWindowStreams) {
  // Sharing one entry across seeds is sound only while no source behind the
  // key reads the seed. If a source starts to, this test fails before the
  // cache serves one seed's stream to another.
  const Format f(params());
  const auto stages_equal = [](const CachedWorkload& x, const CachedWorkload& y) {
    if (x.stages.size() != y.stages.size()) return false;
    for (std::size_t s = 0; s < x.stages.size(); ++s) {
      if (x.stages[s].name != y.stages[s].name ||
          x.stages[s].source_id != y.stages[s].source_id ||
          x.stages[s].reqs != y.stages[s].reqs) {
        return false;
      }
    }
    return true;
  };
  LoadOptions s1, s42;
  s1.seed = 1;
  s42.seed = 42;
  EXPECT_TRUE(stages_equal(*StreamCache::generate(f.model, f.layout, s1),
                           *StreamCache::generate(f.model, f.layout, s42)));

  s1.motion_window_encoder = s42.motion_window_encoder = true;
  EXPECT_FALSE(stages_equal(*StreamCache::generate(f.model, f.layout, s1),
                            *StreamCache::generate(f.model, f.layout, s42)));
}

std::shared_ptr<CachedWorkload> tiny_workload(std::uint64_t requests) {
  auto wl = std::make_shared<CachedWorkload>();
  CachedStage stage;
  stage.name = "tiny";
  stage.source_id = 0;
  for (std::uint64_t i = 0; i < requests; ++i) {
    stage.reqs.push_back(CachedStage::pack(i * 16, false));
  }
  wl->total_requests = requests;
  wl->burst_bytes = 16;
  wl->stages.push_back(std::move(stage));
  return wl;
}

TEST(StreamCache, ConcurrentMissesBuildOnce) {
  auto& cache = StreamCache::instance();
  cache.clear();
  constexpr int kThreads = 8;
  std::atomic<int> builds{0};
  const auto slow_build = [&builds] {
    builds.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return tiny_workload(64);
  };
  std::latch start(kThreads);
  std::vector<const CachedWorkload*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[t] = cache.get_keyed("single-flight", slow_build).get();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(seen[t], nullptr);
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  const StreamCacheStats st = cache.stats();
  EXPECT_EQ(st.stream_entries, 1u);
  EXPECT_EQ(st.stream_bytes, 64u * sizeof(std::uint64_t));
  cache.clear();
}

TEST(StreamCache, FailedBuildReachesEveryWaiterAndRetainsNothing) {
  auto& cache = StreamCache::instance();
  cache.clear();
  constexpr int kThreads = 8;
  const auto failing_build = []() -> std::shared_ptr<CachedWorkload> {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    throw std::runtime_error("build failed");
  };
  std::latch start(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      try {
        (void)cache.get_keyed("throws", failing_build);
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "build failed") failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), kThreads);
  StreamCacheStats st = cache.stats();
  EXPECT_EQ(st.stream_entries, 0u);
  EXPECT_EQ(st.stream_bytes, 0u);

  // The key is free again: the next call builds and retains.
  int builds = 0;
  const auto wl = cache.get_keyed("throws", [&builds] {
    ++builds;
    return tiny_workload(8);
  });
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(wl->key, "throws");
  st = cache.stats();
  EXPECT_EQ(st.stream_entries, 1u);
  EXPECT_EQ(st.stream_bytes, 8u * sizeof(std::uint64_t));
  cache.clear();
}

TEST(StreamCache, EnvOffBypassesRetention) {
  auto& cache = StreamCache::instance();
  cache.clear();
  const Format f(params());
  LoadOptions opt;

  setenv("MCM_STREAM_CACHE", "off", 1);
  EXPECT_FALSE(StreamCache::enabled());
  const auto a = cache.get(f.model, f.layout, kAlign, opt);
  const auto b = cache.get(f.model, f.layout, kAlign, opt);
  EXPECT_NE(a.get(), b.get()) << "off = no retention";
  EXPECT_EQ(cache.cached_bytes(), 0u);
  unsetenv("MCM_STREAM_CACHE");
  EXPECT_TRUE(StreamCache::enabled());

  // Same content either way.
  const auto c = cache.get(f.model, f.layout, kAlign, opt);
  ASSERT_EQ(a->stages.size(), c->stages.size());
  for (std::size_t s = 0; s < a->stages.size(); ++s) {
    EXPECT_EQ(a->stages[s].reqs, c->stages[s].reqs);
  }
  cache.clear();
}

}  // namespace
}  // namespace mcm::load
