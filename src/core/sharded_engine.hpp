// Channel-sharded execution of the paper's state-machine load model.
//
// The sequential feed loop (core::FrameSimulator) interleaves channels
// through one heap; this engine runs each channel as an independent logical
// process and keeps the results bit-identical via the *threshold protocol*:
//
//   for request r -> channel j, in stream order (position p):
//     1. j applies the max of thresholds published since its previous
//        position: pop while (horizon_j, j) <lex Tmax, then clear Tmax.
//     2. if j's queue is full: publish T = (horizon_j, j) to every other
//        channel (max-merged into their pending Tmax), then pop j once.
//     3. enqueue r into j.
//   stage end: every channel drains to empty (pending thresholds are
//   subsumed by the full drain).
//
// This is exactly what the sequential loop does: a full-queue stall there
// serves globally min-(horizon, channel) channels until j's key is the
// minimum again, i.e. it pops every channel k with (h_k, k) < (h_j, j) up
// to that bound — and between two of k's own enqueues only the *largest*
// such bound matters, so the bounds can be applied lazily at k's next
// position. Cross-channel pop order is output-invariant (stats are merged
// per channel, stage completion is a max), which is what makes the lazy
// application legal.
//
// Execution. With one worker the protocol runs exactly as written above,
// position by position. With more workers the stream is cut into chunks of
// MCM_SIM_CHUNK positions and each chunk runs in three tiers:
//
//   Tier 1 (proven run): while every channel's occupancy plus its incoming
//   positions in the window fits its queue depth, no queue can fill, so no
//   thresholds can be published — workers blast their own channels'
//   positions (from load::ChunkMeta's per-channel position lists) with no
//   synchronization beyond the chunk barrier.
//
//   Tier 2 (speculate + validate): each worker runs its own channels'
//   positions assuming no cross-channel threshold binds inside the chunk
//   (entry thresholds from earlier chunks still apply at the first own
//   position), recording per position the pre-publish horizon, the
//   was-full bit, and the had-pending bit. After a barrier, each channel
//   replays the chunk's publish sequence from those records and checks
//   whether any threshold would have popped where speculation did not.
//   Publishes recorded before the globally first divergence are exact, so
//   the minimum over channels of the first divergence is exact.
//
//   Tier 3 (rollback): on divergence (or MCM_SIM_SPEC=rollback), restore
//   the epoch snapshot (whole-channel copies + trace rewind marks, taken
//   every few speculative chunks) and replay serially up to the chunk end
//   with the exact protocol, then re-snapshot. Committed state is never
//   re-rolled. After kMaxRollbacksPerSegment genuine rollbacks the
//   segment's remainder is completed serially (speculation is clearly not
//   paying for this stream shape).
//
// A run that asks for several workers but cannot run chunked (chunk size
// 1, more than 255 channels, or a trace writer that cannot rewind) runs on
// one worker. Channels are assigned to workers round-robin (channel c ->
// worker c % T).
//
// Every ordering and rollback decision is a pure function of per-channel
// deterministic state, so results are byte-identical at any worker count
// AND any chunk size, including the sequential loop's.
#pragma once

#include <cstdint>
#include <vector>

#include "load/stream_cache.hpp"
#include "multichannel/memory_system.hpp"

namespace mcm::core {

struct StageResult;  // frame_simulator.hpp

/// Bookkeeping the frame loop produces (mirrors the sequential path).
struct ShardedRunOutput {
  Time end_time = Time::zero();      // t after the last frame
  Time access_accum = Time::zero();  // sum of per-frame busy times
  std::vector<Time> per_frame_access;
  std::uint64_t bytes_first_frame = 0;
  std::vector<std::pair<std::string, std::uint64_t>> first_frame_stages;
  std::vector<Time> first_frame_completed;  // parallel to first_frame_stages
};

/// Run `frame_workloads.size()` frames (entry f = frame f's memoized
/// stream) against `sys` with `sim_threads` workers. The caller routes
/// nothing: requests carry global addresses and are routed here. Updates
/// sys's per-channel route counters; channel stats/energy/trace accumulate
/// in the channels as usual.
/// `sim_chunk` positions per speculative chunk (0 = MCM_SIM_CHUNK or the
/// built-in default; 1 forces one worker).
ShardedRunOutput run_sharded_frames(
    multichannel::MemorySystem& sys,
    const std::vector<const load::CachedWorkload*>& frame_workloads,
    Time period, unsigned sim_threads, unsigned sim_chunk = 0);

/// The sequential feed loop (one heap, `while (!try_submit) process_next`)
/// over the same memoized streams: the legacy-equivalent semantics the
/// threshold protocol above reproduces. Kept as a first-class entry point so
/// the differential verifier can pit the two feeds against each other and
/// against the golden reference model.
ShardedRunOutput run_sequential_frames(
    multichannel::MemorySystem& sys,
    const std::vector<const load::CachedWorkload*>& frame_workloads,
    Time period);

/// MCM_SIM_THREADS when set to a positive integer, else 1. Intra-point
/// parallelism is opt-in: exploration already parallelizes across points.
[[nodiscard]] unsigned sim_threads_from_env();

/// Worker count actually used for `requested` threads on `channels`
/// channels (0 = environment default; clamped to the channel count).
[[nodiscard]] unsigned resolve_sim_threads(unsigned requested,
                                           std::uint32_t channels);

/// MCM_SIM_CHUNK when set to a positive integer, else 0 (engine default).
[[nodiscard]] unsigned sim_chunk_from_env();

/// Chunk size actually used for `requested` (0 = environment default, then
/// the built-in default of 4096 positions).
[[nodiscard]] unsigned resolve_sim_chunk(unsigned requested);

}  // namespace mcm::core
