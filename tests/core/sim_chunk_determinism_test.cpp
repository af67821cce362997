// Determinism contract of the epoch-batched (chunked) sharded engine:
// every statistic, timestamp, and trace byte is identical at any chunk
// size — including 1 (one worker, no speculation), odd sizes that straddle
// interleave stripes, and chunks larger than the whole stream — and on the
// rollback path (MCM_SIM_SPEC=rollback forces a rollback at every
// speculative chunk). Synthetic workloads drive run_sharded_frames
// directly, mirroring sim_threads_determinism_test.
#include "core/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace mcm::core {
namespace {

using load::CachedStage;
using load::CachedWorkload;

multichannel::SystemConfig make_system(std::uint32_t channels,
                                       std::uint32_t queue_depth = 8) {
  ExperimentConfig cfg = ExperimentConfig::paper_defaults();
  cfg.base.channels = channels;
  cfg.base.controller.queue_depth = queue_depth;
  return cfg.base;
}

CachedStage make_stage(const char* name, std::uint16_t source_id,
                       std::uint64_t base, std::uint64_t stride,
                       std::size_t count) {
  CachedStage s;
  s.name = name;
  s.source_id = count == 0 ? 0xffff : source_id;
  s.reqs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    s.reqs.push_back(CachedStage::pack(base + i * stride, (i / 4) % 2 == 1));
  }
  return s;
}

CachedWorkload make_workload(std::vector<CachedStage> stages) {
  CachedWorkload wl;
  wl.burst_bytes = 16;
  for (auto& s : stages) {
    wl.total_requests += s.reqs.size();
    wl.stages.push_back(std::move(s));
  }
  return wl;
}

struct RunResult {
  ShardedRunOutput out;
  multichannel::SystemStats stats;
  std::string trace;
};

RunResult run_once(const multichannel::SystemConfig& config,
                   const std::vector<const CachedWorkload*>& frames,
                   Time period, unsigned threads, unsigned chunk) {
  multichannel::MemorySystem sys(config);
  std::vector<obs::TraceSpool> spools(sys.channel_count());
  for (std::uint32_t c = 0; c < sys.channel_count(); ++c) {
    sys.attach_trace(&spools[c], c);
  }
  RunResult r;
  r.out = run_sharded_frames(sys, frames, period, threads, chunk);
  sys.finalize(max(r.out.end_time, period * static_cast<int>(frames.size())));
  std::vector<const obs::TraceSpool*> refs;
  for (const auto& s : spools) refs.push_back(&s);
  std::ostringstream os;
  obs::merge_trace_spools(refs, os);
  r.trace = os.str();
  r.stats = sys.stats();
  return r;
}

void expect_identical(const RunResult& a, const RunResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.out.end_time.ps(), b.out.end_time.ps());
  EXPECT_EQ(a.out.access_accum.ps(), b.out.access_accum.ps());
  EXPECT_EQ(a.out.bytes_first_frame, b.out.bytes_first_frame);
  ASSERT_EQ(a.out.per_frame_access.size(), b.out.per_frame_access.size());
  for (std::size_t i = 0; i < a.out.per_frame_access.size(); ++i) {
    EXPECT_EQ(a.out.per_frame_access[i].ps(), b.out.per_frame_access[i].ps());
  }

  EXPECT_EQ(a.stats.reads, b.stats.reads);
  EXPECT_EQ(a.stats.writes, b.stats.writes);
  EXPECT_EQ(a.stats.bytes, b.stats.bytes);
  EXPECT_EQ(a.stats.row_hits, b.stats.row_hits);
  EXPECT_EQ(a.stats.row_misses, b.stats.row_misses);
  EXPECT_EQ(a.stats.row_conflicts, b.stats.row_conflicts);
  EXPECT_EQ(a.stats.activates, b.stats.activates);
  EXPECT_EQ(a.stats.precharges, b.stats.precharges);
  EXPECT_EQ(a.stats.refreshes, b.stats.refreshes);
  EXPECT_EQ(a.stats.latency_ns.count(), b.stats.latency_ns.count());
  EXPECT_EQ(a.stats.latency_ns.mean(), b.stats.latency_ns.mean());
  EXPECT_EQ(a.stats.latency_ns.variance(), b.stats.latency_ns.variance());

  EXPECT_EQ(a.trace, b.trace) << "merged trace must be byte-identical";
}

/// Reference = T1 chunk=1 (single worker, no speculation); every
/// (threads, chunk) combination must match it byte for byte.
void expect_chunk_invariant(const multichannel::SystemConfig& config,
                            const std::vector<const CachedWorkload*>& frames,
                            Time period,
                            const std::vector<unsigned>& chunks) {
  const RunResult ref = run_once(config, frames, period, 1, 1);
  EXPECT_GT(ref.stats.reads + ref.stats.writes, 0u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const unsigned chunk : chunks) {
      const RunResult r = run_once(config, frames, period, threads, chunk);
      expect_identical(ref, r,
                       "T=" + std::to_string(threads) +
                           " chunk=" + std::to_string(chunk));
    }
  }
}

TEST(SimChunkDeterminism, ChunkSizeSweepInterleavedStream) {
  // Sequential 16 B bursts rotate channels every request; 600 requests at
  // chunk 64 puts chunk boundaries mid-stripe and mid-queue-fill.
  const auto config = make_system(4);
  const auto wl = make_workload({make_stage("seq", 1, 0, 16, 600)});
  const std::vector<const CachedWorkload*> frames{&wl};
  expect_chunk_invariant(config, frames, Time::from_us(500),
                         {0, 1, 2, 64, 4096});
}

TEST(SimChunkDeterminism, OddChunkSizesVsInterleaveStripes) {
  // Chunk sizes coprime to the 4-channel rotation (3, 5, 7) place every
  // chunk boundary at a different channel phase.
  const auto config = make_system(4, /*queue_depth=*/4);
  const auto wl = make_workload({make_stage("a", 1, 0, 16, 301),
                                 make_stage("b", 2, 64, 48, 257)});
  const std::vector<const CachedWorkload*> frames{&wl};
  expect_chunk_invariant(config, frames, Time::from_us(500), {3, 5, 7});
}

TEST(SimChunkDeterminism, ChunkLargerThanStream) {
  const auto config = make_system(2);
  const auto wl = make_workload({make_stage("tiny", 1, 0, 16, 37)});
  const std::vector<const CachedWorkload*> frames{&wl, &wl};
  expect_chunk_invariant(config, frames, Time::from_us(250),
                         {64, 1u << 20});
}

TEST(SimChunkDeterminism, BackpressuredStreamAcrossChunkSizes) {
  // queue_depth 2 keeps every queue full, so every speculative position
  // records a publish and the validation walk carries real thresholds;
  // skewed stage mixes make horizons diverge across channels.
  const auto config = make_system(2, /*queue_depth=*/2);
  const auto wl = make_workload({make_stage("skew", 1, 0, 32, 240),
                                 make_stage("rot", 2, 16, 16, 240)});
  const std::vector<const CachedWorkload*> frames{&wl, &wl};
  expect_chunk_invariant(config, frames, Time::from_us(250), {0, 5, 64});
}

TEST(SimChunkDeterminism, ForcedRollbackPathIsByteIdentical) {
  // MCM_SIM_SPEC=rollback snapshots, discards, and serially replays every
  // speculative chunk — the full rollback machinery runs on every chunk
  // and the results must not change at any thread count or chunk size.
  const auto config = make_system(4);
  const auto wl = make_workload({make_stage("seq", 1, 0, 16, 600),
                                 make_stage("str", 2, 32, 48, 300)});
  const std::vector<const CachedWorkload*> frames{&wl, &wl};
  const RunResult ref = run_once(config, frames, Time::from_us(500), 1, 1);
  setenv("MCM_SIM_SPEC", "rollback", 1);
  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const unsigned chunk : {0u, 64u}) {
      const RunResult r = run_once(config, frames, Time::from_us(500), threads,
                                   chunk);
      expect_identical(ref, r,
                       "rollback T=" + std::to_string(threads) +
                           " chunk=" + std::to_string(chunk));
    }
  }
  unsetenv("MCM_SIM_SPEC");
}

TEST(SimChunkDeterminism, ForcedRollbackActuallyRollsBack) {
  // Profiler proof that the previous test exercised what it claims: with
  // MCM_SIM_SPEC=rollback and >1 worker the engine/rollback phase fires.
  const auto config = make_system(4);
  const auto wl = make_workload({make_stage("seq", 1, 0, 16, 600)});
  const std::vector<const CachedWorkload*> frames{&wl};
  setenv("MCM_SIM_SPEC", "rollback", 1);
  obs::prof::set_enabled(true);
  (void)obs::prof::collect(true);
  (void)run_once(config, frames, Time::from_us(500), 2, 64);
  const obs::prof::ProfileReport rep = obs::prof::collect(true);
  obs::prof::set_enabled(false);
  unsetenv("MCM_SIM_SPEC");
  const obs::prof::ProfilePhase* rb = rep.find("engine/rollback");
  ASSERT_NE(rb, nullptr) << "forced mode must take the rollback path";
  EXPECT_GT(rb->calls, 0u);
  const obs::prof::ProfilePhase* ep = rep.find("engine/epoch_publish");
  ASSERT_NE(ep, nullptr);
  EXPECT_GT(ep->calls, 0u);
}

TEST(SimChunkDeterminism, ChunkSizeOneRunsSingleWorker) {
  // chunk=1 cannot speculate, so a 2-worker request resolves to one worker:
  // no chunked phases, no second worker's phases, and output byte-identical
  // to the chunked 2-worker run.
  const auto config = make_system(4);
  const auto wl = make_workload({make_stage("seq", 1, 0, 16, 600)});
  const std::vector<const CachedWorkload*> frames{&wl};
  obs::prof::set_enabled(true);
  (void)obs::prof::collect(true);
  const RunResult single = run_once(config, frames, Time::from_us(500), 2, 1);
  const obs::prof::ProfileReport single_prof = obs::prof::collect(true);
  const RunResult chunked = run_once(config, frames, Time::from_us(500), 2, 4096);
  const obs::prof::ProfileReport chunked_prof = obs::prof::collect(true);
  obs::prof::set_enabled(false);

  EXPECT_NE(single_prof.find("engine/w0/feed"), nullptr);
  EXPECT_EQ(single_prof.find("engine/epoch_publish"), nullptr);
  for (const auto& ph : single_prof.phases) {
    EXPECT_NE(ph.name.rfind("engine/w1/", 0), 0u)
        << "second worker ran: " << ph.name;
  }
  EXPECT_NE(chunked_prof.find("engine/w1/feed"), nullptr);
  expect_identical(single, chunked, "chunk=1 vs chunk=4096 at 2 workers");
}

TEST(SimChunkDeterminism, ResolveAndEnvDefaults) {
  unsetenv("MCM_SIM_CHUNK");
  EXPECT_EQ(sim_chunk_from_env(), 0u);
  EXPECT_EQ(resolve_sim_chunk(0), 4096u);
  EXPECT_EQ(resolve_sim_chunk(17), 17u);

  setenv("MCM_SIM_CHUNK", "256", 1);
  EXPECT_EQ(sim_chunk_from_env(), 256u);
  EXPECT_EQ(resolve_sim_chunk(0), 256u);
  EXPECT_EQ(resolve_sim_chunk(9), 9u) << "explicit request beats env";

  setenv("MCM_SIM_CHUNK", "garbage", 1);
  EXPECT_EQ(sim_chunk_from_env(), 0u);
  setenv("MCM_SIM_CHUNK", "-4", 1);
  EXPECT_EQ(sim_chunk_from_env(), 0u);
  unsetenv("MCM_SIM_CHUNK");
}

}  // namespace
}  // namespace mcm::core
