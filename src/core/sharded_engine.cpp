#include "core/sharded_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "exec/thread_pool.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace mcm::core {
namespace {

// Positions per speculative chunk when neither the caller nor MCM_SIM_CHUNK
// chooses: big enough that the 2-3 chunk barriers amortize to noise against
// ~4096 requests of service work, small enough that a rollback replays a
// bounded slice.
constexpr unsigned kDefaultSimChunk = 4096;

// Speculative chunks between epoch snapshots. Snapshots copy whole channels
// (dominated by the ~32 KB latency histogram each), so they are amortized
// over several chunks; a rollback replays at most this many chunks.
constexpr unsigned kEpochChunks = 8;

// Genuine rollbacks tolerated per segment before the rest of the segment
// is replayed serially (adaptive kill switch; a pure function of
// deterministic state, so it cannot break determinism).
constexpr unsigned kMaxRollbacksPerSegment = 8;

constexpr std::uint64_t kNoDivergence =
    std::numeric_limits<std::uint64_t>::max();

// MCM_SIM_SPEC=rollback forces a rollback at every speculative chunk (test
// knob: results must stay byte-identical); any other value is ignored.
bool force_rollback_from_env() {
  const char* env = std::getenv("MCM_SIM_SPEC");
  return env != nullptr && std::string_view(env) == "rollback";
}

/// Strict (horizon, channel) order — the sequential engine's channel-select
/// key. `a` pops while its key is lexicographically below the threshold.
bool key_less(std::int64_t ha, std::uint32_t ia, std::int64_t hb,
              std::uint32_t ib) {
  return ha < hb || (ha == hb && ia < ib);
}

// Per-channel engine state. Only the channel's owning worker touches it
// between barriers; the serial steps (synchronized against every worker)
// reset and roll it back.
struct alignas(64) ChanState {
  // Pending threshold: the max of the bounds published since the channel's
  // previous position.
  std::int64_t tmax_ps = 0;
  std::uint32_t tmax_idx = 0;
  bool tmax_valid = false;
  std::uint64_t routed = 0;

  // Chunked mode only: next unconsumed index into ChunkMeta::pos_of for
  // this channel, and the exit threshold the validation walk computed for
  // the current chunk (promoted to tmax on commit, discarded on rollback).
  std::uint32_t meta_idx = 0;
  std::int64_t exit_ps = 0;
  std::uint32_t exit_idx = 0;
  bool exit_valid = false;
};

// Per-worker self-profiling handles (obs/prof). Everything here observes
// host-side wall clock only and never feeds back into engine decisions, so
// simulated results are identical with profiling on or off. Interning the
// per-worker phase names costs a handful of map lookups per run, paid only
// when profiling is enabled.
struct WorkerProf {
  bool on = false;
  obs::prof::PhaseId feed{};        // main-loop wall per segment (incl. waits)
  obs::prof::PhaseId drain{};       // stage-barrier drain wall per segment
  obs::prof::PhaseId barrier{};     // segment/chunk-barrier wait
  obs::prof::PhaseId retired{};     // completions popped by this worker
  obs::prof::PhaseId speculate{};   // chunked: speculative execution wall
  obs::prof::PhaseId validate{};    // chunked: validation walk wall
  obs::prof::PhaseId snapshot{};    // chunked: epoch snapshot wall
  obs::prof::PhaseId publishes{};   // chunked: full-queue publish records
  obs::prof::PhaseId spec_depth{};  // chunked: own positions per spec chunk
};

WorkerProf make_worker_prof(unsigned w) {
  WorkerProf p;
  p.on = obs::prof::enabled();
  if (!p.on) return p;
  char buf[48];
  const auto id = [&](const char* suffix) {
    std::snprintf(buf, sizeof buf, "engine/w%u/%s", w, suffix);
    return obs::prof::phase_id(buf);
  };
  p.feed = id("feed");
  p.drain = id("drain");
  p.barrier = id("barrier_wait");
  p.retired = id("retired");
  p.speculate = id("speculate");
  p.validate = id("validate");
  p.snapshot = id("snapshot");
  p.publishes = id("publishes");
  p.spec_depth = id("spec_depth");
  std::snprintf(buf, sizeof buf, "engine/w%u", w);
  obs::prof::set_thread_label(buf);
  return p;
}

struct Segment {
  const load::CachedStage* stage = nullptr;
  std::uint32_t burst = 0;
  int frame = 0;
  bool first_of_frame = false;
  bool last_of_frame = false;
};

struct Shared {
  multichannel::MemorySystem& sys;
  const multichannel::Interleaver& il;
  std::vector<Segment> segments;
  Time period = Time::zero();
  unsigned workers = 1;

  std::atomic<unsigned> arrived{0};
  std::atomic<std::uint64_t> generation{0};
  std::atomic<bool> failed{false};
  bool oversubscribed = false;

  // Written by the serial barrier step, read by workers after the next
  // generation acquire.
  Time arrival = Time::zero();

  std::vector<ChanState> chans;
  std::vector<Time> slot_last_done;  // per worker

  // Serial-step frame bookkeeping (mirrors the sequential loop).
  Time t = Time::zero();
  Time frame_start = Time::zero();
  Time stage_start = Time::zero();
  ShardedRunOutput out;

  // ---- Chunked (epoch-batched) mode ----
  bool chunked = false;
  unsigned chunk = 0;  // max positions per speculative chunk
  bool force_rollback = false;
  std::vector<std::shared_ptr<const load::ChunkMeta>> metas;  // per segment
  std::size_t seg_index = 0;  // segment the chunk serial steps operate on

  // Chunk window: written by serial steps, read by workers after the next
  // generation acquire.
  std::uint64_t chunk_begin = 0;
  std::uint64_t chunk_end = 0;
  bool chunk_proven = false;
  bool take_snapshot = false;
  bool rolled_back = false;
  bool spec_killed = false;

  // Speculation record for the current chunk, indexed p - chunk_begin.
  // Each position is written by exactly one worker (the channel owner)
  // during SPEC and read only after the chunk barrier.
  std::vector<std::int64_t> h_pre;  // horizon before the full-queue pop
  std::vector<std::uint8_t> flags;  // bit0 was_full, bit1 had_pending

  // Per-worker first divergence (kNoDivergence = clean), min-reduced at
  // the commit barrier.
  std::vector<std::uint64_t> div_min;

  // Epoch snapshot: whole-channel copies + trace rewind marks + engine
  // bookkeeping, restored on rollback. Snapshots of a worker's own
  // channels are taken in parallel at the chunk start; the post-replay
  // re-snapshot is serial.
  std::uint64_t epoch_begin = 0;
  bool has_snapshot = false;
  unsigned spec_chunks_since_snapshot = 0;
  unsigned segment_rollbacks = 0;
  struct ChanSave {
    std::int64_t tmax_ps = 0;
    std::uint32_t tmax_idx = 0;
    bool tmax_valid = false;
    std::uint64_t routed = 0;
    std::uint32_t meta_idx = 0;
  };
  std::vector<std::optional<channel::Channel>> chan_snaps;
  std::vector<std::uint64_t> spool_marks;
  std::vector<ChanSave> chan_saves;
  std::vector<Time> done_snap;  // per worker

  explicit Shared(multichannel::MemorySystem& s)
      : sys(s), il(s.interleaver()) {}
};

/// Wait briefly for another worker. With more workers than hardware
/// threads, the awaited worker cannot be running — hand the core over
/// immediately instead of burning a scheduling quantum.
void spin_pause(unsigned& spins, bool oversubscribed) {
  if (oversubscribed) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
  if ((++spins & 63u) == 0) std::this_thread::yield();
}

void stage_next_chunk(Shared& sh, std::uint64_t begin, std::uint64_t n);

/// Max-merge one threshold into the channel's pending bound.
void fold_threshold(ChanState& st, std::int64_t h_ps, std::uint32_t idx) {
  if (!st.tmax_valid || key_less(st.tmax_ps, st.tmax_idx, h_ps, idx)) {
    st.tmax_ps = h_ps;
    st.tmax_idx = idx;
    st.tmax_valid = true;
  }
}

/// The serial step the last barrier arriver runs after segment `i`: merge
/// per-worker completion maxima, advance the frame clock exactly like the
/// sequential loop, and stage the next segment.
void serial_step(Shared& sh, std::size_t i) {
  const Segment& s = sh.segments[i];
  Time last = sh.arrival;
  for (unsigned w = 0; w < sh.workers; ++w) {
    last = max(last, sh.slot_last_done[w]);
  }
  sh.stage_start = max(sh.stage_start, last);
  if (s.frame == 0) {
    const std::uint64_t bytes = s.stage->reqs.size() * s.burst;
    sh.out.first_frame_stages.push_back(
        StageResult{s.stage->name, sh.stage_start, bytes});
    sh.out.bytes_first_frame += bytes;
  }
  if (s.last_of_frame) {
    const Time busy = sh.stage_start - sh.frame_start;
    sh.out.access_accum += busy;
    sh.out.per_frame_access.push_back(busy);
    sh.t = max(sh.frame_start + sh.period, sh.stage_start);
  }
  if (i + 1 < sh.segments.size()) {
    if (sh.segments[i + 1].first_of_frame) {
      sh.frame_start = sh.t;
      sh.stage_start = sh.t;
    }
    sh.arrival = sh.stage_start;
    for (ChanState& st : sh.chans) {
      st.tmax_valid = false;
      st.meta_idx = 0;
    }
    if (sh.chunked) {
      // Fresh chunked state for the next segment: the stage drain left
      // every queue empty, so the occupancy-based window proof starts
      // clean. Snapshots never outlive a segment (arrival changes).
      sh.seg_index = i + 1;
      sh.has_snapshot = false;
      sh.spec_chunks_since_snapshot = 0;
      sh.segment_rollbacks = 0;
      sh.spec_killed = false;
      stage_next_chunk(sh, 0, sh.segments[i + 1].stage->reqs.size());
    }
  } else {
    sh.out.end_time = sh.t;
  }
}

/// Sense-reversing barrier; the last arriver runs the serial step for
/// segment `i`. Returns false when the run was aborted by a failure.
bool barrier(Shared& sh, std::size_t i, const WorkerProf& wp) {
  const std::uint64_t gen = sh.generation.load(std::memory_order_acquire);
  if (sh.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == sh.workers) {
    static const obs::prof::PhaseId kSerialStep =
        obs::prof::phase_id("engine/serial_step");
    const std::int64_t t0 = wp.on ? obs::prof::now_ns() : 0;
    serial_step(sh, i);
    if (wp.on) obs::prof::tally(kSerialStep, obs::prof::now_ns() - t0);
    sh.arrived.store(0, std::memory_order_relaxed);
    sh.generation.store(gen + 1, std::memory_order_release);
    return !sh.failed.load(std::memory_order_relaxed);
  }
  const std::int64_t t0 = wp.on ? obs::prof::now_ns() : 0;
  unsigned spins = 0;
  while (sh.generation.load(std::memory_order_acquire) == gen) {
    if (sh.failed.load(std::memory_order_relaxed)) {
      if (wp.on) obs::prof::tally(wp.barrier, obs::prof::now_ns() - t0);
      return false;
    }
    spin_pause(spins, sh.oversubscribed);
  }
  if (wp.on) obs::prof::tally(wp.barrier, obs::prof::now_ns() - t0);
  return !sh.failed.load(std::memory_order_relaxed);
}

/// The threshold protocol on one worker, which owns every channel and every
/// position: route, serve the pending threshold, publish and pop on a full
/// queue, enqueue. Runs whenever the chunked mode cannot (one worker,
/// chunk 1, more than 255 channels, or a non-rewindable trace writer).
void run_segment_single(Shared& sh, const Segment& s, const WorkerProf& wp) {
  const std::uint64_t n = s.stage->reqs.size();
  const std::uint64_t* reqs = s.stage->reqs.data();
  const std::uint32_t channels = sh.sys.channel_count();
  const Time arr = sh.arrival;
  const std::uint16_t sid = s.stage->source_id;
  Time local_done = max(arr, sh.slot_last_done[0]);

  const bool pon = wp.on;
  const std::int64_t t_feed0 = pon ? obs::prof::now_ns() : 0;
  std::uint64_t retired = 0;

  const auto pop = [&](channel::Channel& ch) {
    const auto c = ch.process_one();
    local_done = max(local_done, c.done);
    retired += static_cast<std::uint64_t>(pon);
  };

  for (std::uint64_t p = 0; p < n; ++p) {
    const std::uint64_t packed = reqs[p];
    const auto routed = sh.il.route(load::CachedStage::addr_of(packed));
    const std::uint32_t c = routed.channel;
    channel::Channel& ch = sh.sys.channel(c);
    ChanState& st = sh.chans[c];
    if (st.tmax_valid) {
      while (ch.has_pending() &&
             key_less(ch.horizon().ps(), c, st.tmax_ps, st.tmax_idx)) {
        pop(ch);
      }
      st.tmax_valid = false;
    }
    const bool was_full = !ch.can_accept();
    if (was_full) {
      // Threshold = pre-pop horizon: the sequential stall serves other
      // channels up to (h_j, j) *before* serving j itself.
      const std::int64_t hj = ch.horizon().ps();
      for (std::uint32_t k = 0; k < channels; ++k) {
        if (k != c) fold_threshold(sh.chans[k], hj, c);
      }
      pop(ch);
    }
    ctrl::Request r;
    r.addr = routed.local;
    r.is_write = load::CachedStage::is_write_of(packed);
    r.arrival = arr;
    r.source = sid;
    ch.enqueue(r);
    ++st.routed;
  }

  const std::int64_t t_drain0 = pon ? obs::prof::now_ns() : 0;
  for (std::uint32_t c = 0; c < channels; ++c) {
    sh.chans[c].tmax_valid = false;
    channel::Channel& ch = sh.sys.channel(c);
    while (ch.has_pending()) pop(ch);
  }
  sh.slot_last_done[0] = local_done;

  if (pon) {
    const std::int64_t t_end = obs::prof::now_ns();
    obs::prof::tally(wp.feed, t_drain0 - t_feed0);
    obs::prof::tally(wp.drain, t_end - t_drain0);
    if (retired > 0) obs::prof::count(wp.retired, retired);
  }
}

// ---------------------------------------------------------------------------
// Chunked (epoch-batched) mode.
// ---------------------------------------------------------------------------

/// Stage the next chunk window starting at `begin` (serial context only:
/// all channels quiescent). Tier-1 proven-run extension first: while every
/// channel's occupancy plus incoming positions fits its queue, no queue can
/// fill, so no thresholds can publish — entry-threshold pops only shrink
/// occupancy, keeping the bound valid. Otherwise a speculative window of at
/// most `chunk` positions, scheduling an epoch snapshot when due.
void stage_next_chunk(Shared& sh, std::uint64_t begin, std::uint64_t n) {
  sh.chunk_begin = begin;
  sh.take_snapshot = false;
  if (begin >= n) {
    sh.chunk_end = begin;
    sh.chunk_proven = false;
    return;
  }
  const load::ChunkMeta& meta = *sh.metas[sh.seg_index];
  const std::uint32_t channels = sh.sys.channel_count();
  const std::uint64_t step = sh.chunk;
  std::uint64_t b = begin;
  for (;;) {
    const std::uint64_t trial = std::min(b + step, n);
    if (trial == b) break;
    bool ok = true;
    for (std::uint32_t c = 0; c < channels && ok; ++c) {
      const ctrl::MemoryController& mc = sh.sys.channel(c).controller();
      ok = mc.pending() + meta.count_in(c, begin, trial) <= mc.queue_capacity();
    }
    if (!ok) break;
    b = trial;
  }
  if (b > begin) {
    static const obs::prof::PhaseId kProven =
        obs::prof::phase_id("engine/proven_positions");
    obs::prof::count(kProven, b - begin);
    sh.chunk_end = b;
    sh.chunk_proven = true;
    return;
  }
  sh.chunk_end = std::min(begin + step, n);
  sh.chunk_proven = false;
  if (!sh.has_snapshot || sh.spec_chunks_since_snapshot >= kEpochChunks) {
    sh.take_snapshot = true;
    sh.epoch_begin = begin;
    sh.spec_chunks_since_snapshot = 0;
    sh.has_snapshot = true;
  }
  ++sh.spec_chunks_since_snapshot;
}

/// Epoch snapshot of this worker's own channels (parallel; the serial
/// rollback reads it through the barrier). slot_last_done[w] must be
/// flushed before the call.
void snapshot_own(Shared& sh, unsigned w, const WorkerProf& wp) {
  const std::int64_t t0 = wp.on ? obs::prof::now_ns() : 0;
  const std::uint32_t channels = sh.sys.channel_count();
  for (std::uint32_t c = w; c < channels; c += sh.workers) {
    channel::Channel& ch = sh.sys.channel(c);
    if (sh.chan_snaps[c].has_value()) {
      *sh.chan_snaps[c] = ch;
    } else {
      sh.chan_snaps[c].emplace(ch);
    }
    obs::TraceWriter* tw = ch.trace_writer();
    sh.spool_marks[c] = tw != nullptr ? tw->mark() : 0;
    const ChanState& st = sh.chans[c];
    sh.chan_saves[c] = Shared::ChanSave{st.tmax_ps, st.tmax_idx, st.tmax_valid,
                                        st.routed, st.meta_idx};
  }
  sh.done_snap[w] = sh.slot_last_done[w];
  if (wp.on) obs::prof::tally(wp.snapshot, obs::prof::now_ns() - t0);
}

/// Speculative execution of channel `c`'s positions in [a, b). Entry
/// thresholds (published by earlier chunks) apply at the first own
/// position, exactly as the serial protocol would; thresholds
/// published *inside* the chunk are assumed not to bind — the validation
/// walk checks that assumption. In a proven window no queue can fill, so
/// the records are skipped and tmax commits immediately.
void spec_channel(Shared& sh, const Segment& s, const load::ChunkMeta& meta,
                  std::uint32_t c, std::uint64_t a, std::uint64_t b,
                  bool proven, Time& local_done, std::uint64_t& retired,
                  std::uint64_t& publishes, std::uint64_t& processed) {
  channel::Channel& ch = sh.sys.channel(c);
  ChanState& st = sh.chans[c];
  const std::vector<std::uint32_t>& pos = meta.pos_of[c];
  const std::uint64_t* reqs = s.stage->reqs.data();
  const std::uint16_t sid = s.stage->source_id;
  const Time arr = sh.arrival;
  std::uint32_t i = st.meta_idx;
  bool entry_pending = st.tmax_valid;
  while (i < pos.size() && pos[i] < b) {
    const std::uint64_t p = pos[i];
    if (entry_pending) {
      while (ch.has_pending() &&
             key_less(ch.horizon().ps(), c, st.tmax_ps, st.tmax_idx)) {
        local_done = max(local_done, ch.process_one().done);
        ++retired;
      }
      entry_pending = false;
      // Keep tmax for the validation walk's entry state; a proven window
      // has no validation, so the application commits right here.
      if (proven) st.tmax_valid = false;
    }
    const bool was_full = !ch.can_accept();
    if (!proven) {
      const std::uint64_t rel = p - a;
      sh.h_pre[rel] = ch.horizon().ps();
      sh.flags[rel] = static_cast<std::uint8_t>((was_full ? 1u : 0u) |
                                                (ch.has_pending() ? 2u : 0u));
    }
    if (was_full) {
      assert(!proven);  // the occupancy bound proved no fill was possible
      local_done = max(local_done, ch.process_one().done);
      ++retired;
      ++publishes;
    }
    const std::uint64_t packed = reqs[p];
    ctrl::Request r;
    r.addr = sh.il.route(load::CachedStage::addr_of(packed)).local;
    r.is_write = load::CachedStage::is_write_of(packed);
    r.arrival = arr;
    r.source = sid;
    ch.enqueue(r);
    ++st.routed;
    ++i;
    ++processed;
  }
  st.meta_idx = i;
}

/// Validation walk for channel `c` over [a, b): replay the chunk's publish
/// sequence from the speculation records and flag the first own position
/// where a threshold would have popped but speculation did not. Publishes
/// recorded before the *global* first divergence are protocol-exact, so the
/// min over channels of the flagged positions is the exact first
/// divergence. On a clean walk the leftover threshold becomes the exit
/// state (promoted to tmax on commit).
void validate_channel(Shared& sh, const load::ChunkMeta& meta, std::uint32_t c,
                      std::uint64_t a, std::uint64_t b,
                      std::uint64_t& div_min) {
  ChanState& st = sh.chans[c];
  std::int64_t t_ps = st.tmax_ps;
  std::uint32_t t_idx = st.tmax_idx;
  bool t_valid = st.tmax_valid;
  const std::uint8_t* chan = meta.chan.data();
  for (std::uint64_t p = a; p < b; ++p) {
    const std::uint64_t rel = p - a;
    const std::uint8_t fl = sh.flags[rel];
    if (chan[p] == c) {
      if (t_valid && (fl & 2u) != 0 &&
          key_less(sh.h_pre[rel], c, t_ps, t_idx)) {
        div_min = std::min(div_min, p);
        return;  // records beyond the first divergence can be garbage
      }
      t_valid = false;
    } else if ((fl & 1u) != 0) {
      const std::int64_t h = sh.h_pre[rel];
      const std::uint32_t k = chan[p];
      if (!t_valid || key_less(t_ps, t_idx, h, k)) {
        t_ps = h;
        t_idx = k;
        t_valid = true;
      }
    }
  }
  st.exit_ps = t_ps;
  st.exit_idx = t_idx;
  st.exit_valid = t_valid;
}

/// Replay stream range [a, b) of the current segment single-threaded with
/// the exact threshold protocol, folding completion times into worker
/// slot 0. Requires channel state that is protocol-exact at position a.
void replay_serial_range(Shared& sh, std::uint64_t a, std::uint64_t b) {
  const Segment& s = sh.segments[sh.seg_index];
  const load::ChunkMeta& meta = *sh.metas[sh.seg_index];
  const std::uint32_t channels = sh.sys.channel_count();
  const std::uint64_t* reqs = s.stage->reqs.data();
  const std::uint16_t sid = s.stage->source_id;
  const Time arr = sh.arrival;
  Time done0 = sh.slot_last_done[0];
  for (std::uint64_t p = a; p < b; ++p) {
    const std::uint32_t c = meta.chan[p];
    channel::Channel& ch = sh.sys.channel(c);
    ChanState& st = sh.chans[c];
    if (st.tmax_valid) {
      while (ch.has_pending() &&
             key_less(ch.horizon().ps(), c, st.tmax_ps, st.tmax_idx)) {
        done0 = max(done0, ch.process_one().done);
      }
      st.tmax_valid = false;
    }
    if (!ch.can_accept()) {
      const std::int64_t hj = ch.horizon().ps();
      for (std::uint32_t k = 0; k < channels; ++k) {
        if (k != c) fold_threshold(sh.chans[k], hj, c);
      }
      done0 = max(done0, ch.process_one().done);
    }
    const std::uint64_t packed = reqs[p];
    ctrl::Request r;
    r.addr = sh.il.route(load::CachedStage::addr_of(packed)).local;
    r.is_write = load::CachedStage::is_write_of(packed);
    r.arrival = arr;
    r.source = sid;
    ch.enqueue(r);
    ++st.routed;
  }
  sh.slot_last_done[0] = done0;
}

/// Serial rollback: restore the epoch snapshot, replay [epoch_begin, b)
/// with the exact threshold protocol single-threaded, then re-snapshot
/// at b so replayed (protocol-exact) state is never rolled back again.
void rollback_and_replay(Shared& sh, std::uint64_t b) {
  const load::ChunkMeta& meta = *sh.metas[sh.seg_index];
  const std::uint32_t channels = sh.sys.channel_count();
  for (std::uint32_t c = 0; c < channels; ++c) {
    channel::Channel& ch = sh.sys.channel(c);
    ch = *sh.chan_snaps[c];
    obs::TraceWriter* tw = ch.trace_writer();
    if (tw != nullptr) tw->rewind(sh.spool_marks[c]);
    ChanState& st = sh.chans[c];
    const Shared::ChanSave& sv = sh.chan_saves[c];
    st.tmax_ps = sv.tmax_ps;
    st.tmax_idx = sv.tmax_idx;
    st.tmax_valid = sv.tmax_valid;
    st.routed = sv.routed;
    st.meta_idx = sv.meta_idx;
  }
  for (unsigned x = 0; x < sh.workers; ++x) {
    sh.slot_last_done[x] = sh.done_snap[x];
  }

  replay_serial_range(sh, sh.epoch_begin, b);

  for (std::uint32_t c = 0; c < channels; ++c) {
    channel::Channel& ch = sh.sys.channel(c);
    *sh.chan_snaps[c] = ch;
    obs::TraceWriter* tw = ch.trace_writer();
    sh.spool_marks[c] = tw != nullptr ? tw->mark() : 0;
    ChanState& st = sh.chans[c];
    st.meta_idx = static_cast<std::uint32_t>(
        std::lower_bound(meta.pos_of[c].begin(), meta.pos_of[c].end(),
                         static_cast<std::uint32_t>(b)) -
        meta.pos_of[c].begin());
    sh.chan_saves[c] = Shared::ChanSave{st.tmax_ps, st.tmax_idx, st.tmax_valid,
                                        st.routed, st.meta_idx};
  }
  for (unsigned x = 0; x < sh.workers; ++x) {
    sh.done_snap[x] = sh.slot_last_done[x];
  }
  sh.epoch_begin = b;
  sh.spec_chunks_since_snapshot = 0;
  sh.has_snapshot = true;
}

/// The serial step at a chunk's commit barrier: reduce divergences, roll
/// back if needed, trip the kill switch, stage the next window.
void serial_chunk_step(Shared& sh) {
  const Segment& s = sh.segments[sh.seg_index];
  const std::uint64_t n = s.stage->reqs.size();
  const std::uint64_t b = sh.chunk_end;
  sh.rolled_back = false;
  if (!sh.chunk_proven) {
    std::uint64_t div = kNoDivergence;
    for (unsigned w = 0; w < sh.workers; ++w) {
      div = std::min(div, sh.div_min[w]);
      sh.div_min[w] = kNoDivergence;
    }
    const bool genuine = div != kNoDivergence;
    if (genuine || sh.force_rollback) {
      static const obs::prof::PhaseId kRollback =
          obs::prof::phase_id("engine/rollback");
      const bool pon = obs::prof::enabled();
      const std::int64_t t0 = pon ? obs::prof::now_ns() : 0;
      rollback_and_replay(sh, b);
      if (pon) obs::prof::tally(kRollback, obs::prof::now_ns() - t0);
      sh.rolled_back = true;
      if (genuine && ++sh.segment_rollbacks >= kMaxRollbacksPerSegment) {
        // Speculation keeps diverging on this segment: finish it serially
        // right here with the exact protocol and let the workers drop to
        // the drain.
        sh.spec_killed = true;
        replay_serial_range(sh, b, n);
        sh.chunk_begin = n;
        sh.chunk_end = n;
        return;
      }
    }
  }
  stage_next_chunk(sh, b, n);
}

/// Chunk barrier; the last arriver optionally runs the serial chunk step.
/// Returns false when the run was aborted by a failure.
bool chunk_barrier(Shared& sh, const WorkerProf& wp, bool serial) {
  const std::uint64_t gen = sh.generation.load(std::memory_order_acquire);
  if (sh.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == sh.workers) {
    if (serial) {
      static const obs::prof::PhaseId kEpochPublish =
          obs::prof::phase_id("engine/epoch_publish");
      const std::int64_t t0 = wp.on ? obs::prof::now_ns() : 0;
      serial_chunk_step(sh);
      if (wp.on) obs::prof::tally(kEpochPublish, obs::prof::now_ns() - t0);
    }
    sh.arrived.store(0, std::memory_order_relaxed);
    sh.generation.store(gen + 1, std::memory_order_release);
    return !sh.failed.load(std::memory_order_relaxed);
  }
  const std::int64_t t0 = wp.on ? obs::prof::now_ns() : 0;
  unsigned spins = 0;
  while (sh.generation.load(std::memory_order_acquire) == gen) {
    if (sh.failed.load(std::memory_order_relaxed)) {
      if (wp.on) obs::prof::tally(wp.barrier, obs::prof::now_ns() - t0);
      return false;
    }
    spin_pause(spins, sh.oversubscribed);
  }
  if (wp.on) obs::prof::tally(wp.barrier, obs::prof::now_ns() - t0);
  return !sh.failed.load(std::memory_order_relaxed);
}

void run_segment_chunked(Shared& sh, const Segment& s, unsigned w,
                         const WorkerProf& wp) {
  const std::uint64_t n = s.stage->reqs.size();
  const load::ChunkMeta& meta = *sh.metas[sh.seg_index];
  const std::uint32_t channels = sh.sys.channel_count();
  const unsigned T = sh.workers;
  Time local_done = max(sh.arrival, sh.slot_last_done[w]);

  const bool pon = wp.on;
  const std::int64_t t_feed0 = pon ? obs::prof::now_ns() : 0;
  std::uint64_t retired = 0;
  std::uint64_t publishes = 0;

  while (!sh.failed.load(std::memory_order_relaxed)) {
    const std::uint64_t a = sh.chunk_begin;
    const std::uint64_t b = sh.chunk_end;
    if (a >= n || sh.spec_killed) break;
    const bool proven = sh.chunk_proven;
    if (sh.take_snapshot) {
      sh.slot_last_done[w] = local_done;
      snapshot_own(sh, w, wp);
    }

    const std::int64_t t_spec0 = pon ? obs::prof::now_ns() : 0;
    std::uint64_t processed = 0;
    for (std::uint32_t c = w; c < channels; c += T) {
      spec_channel(sh, s, meta, c, a, b, proven, local_done, retired,
                   publishes, processed);
    }
    if (pon) {
      obs::prof::tally(wp.speculate, obs::prof::now_ns() - t_spec0);
      if (!proven) obs::prof::value(wp.spec_depth, static_cast<std::int64_t>(processed));
    }
    sh.slot_last_done[w] = local_done;

    if (proven) {
      if (!chunk_barrier(sh, wp, true)) return;
    } else {
      if (!chunk_barrier(sh, wp, false)) return;
      const std::int64_t t_val0 = pon ? obs::prof::now_ns() : 0;
      std::uint64_t dmin = kNoDivergence;
      for (std::uint32_t c = w; c < channels; c += T) {
        validate_channel(sh, meta, c, a, b, dmin);
      }
      sh.div_min[w] = dmin;
      if (pon) obs::prof::tally(wp.validate, obs::prof::now_ns() - t_val0);
      if (!chunk_barrier(sh, wp, true)) return;
      if (sh.rolled_back) {
        local_done = sh.slot_last_done[w];
      } else {
        for (std::uint32_t c = w; c < channels; c += T) {
          ChanState& st = sh.chans[c];
          st.tmax_ps = st.exit_ps;
          st.tmax_idx = st.exit_idx;
          st.tmax_valid = st.exit_valid;
        }
      }
    }
  }

  if (pon) {
    obs::prof::tally(wp.feed, obs::prof::now_ns() - t_feed0);
    if (retired > 0) obs::prof::count(wp.retired, retired);
    if (publishes > 0) obs::prof::count(wp.publishes, publishes);
  }
  const std::int64_t t_drain0 = pon ? obs::prof::now_ns() : 0;
  std::uint64_t drain_retired = 0;
  for (std::uint32_t c = w; c < channels; c += T) {
    sh.chans[c].tmax_valid = false;
    channel::Channel& ch = sh.sys.channel(c);
    while (ch.has_pending()) {
      local_done = max(local_done, ch.process_one().done);
      ++drain_retired;
    }
  }
  sh.slot_last_done[w] = local_done;
  if (pon) {
    obs::prof::tally(wp.drain, obs::prof::now_ns() - t_drain0);
    if (drain_retired > 0) obs::prof::count(wp.retired, drain_retired);
  }
}

void run_worker(Shared& sh, unsigned w) {
  const WorkerProf wp = make_worker_prof(w);
  try {
    for (std::size_t i = 0; i < sh.segments.size(); ++i) {
      if (sh.chunked) {
        run_segment_chunked(sh, sh.segments[i], w, wp);
      } else {
        run_segment_single(sh, sh.segments[i], wp);
      }
      if (!barrier(sh, i, wp)) return;
    }
  } catch (...) {
    sh.failed.store(true, std::memory_order_relaxed);
    throw;
  }
}

}  // namespace

unsigned sim_threads_from_env() {
  const char* env = std::getenv("MCM_SIM_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return 1;
  return static_cast<unsigned>(v);
}

unsigned resolve_sim_threads(unsigned requested, std::uint32_t channels) {
  const unsigned want = requested > 0 ? requested : sim_threads_from_env();
  return std::max(1u, std::min(want, channels));
}

unsigned sim_chunk_from_env() {
  const char* env = std::getenv("MCM_SIM_CHUNK");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return 0;
  return static_cast<unsigned>(v);
}

unsigned resolve_sim_chunk(unsigned requested) {
  const unsigned want = requested > 0 ? requested : sim_chunk_from_env();
  return want > 0 ? want : kDefaultSimChunk;
}

ShardedRunOutput run_sharded_frames(
    multichannel::MemorySystem& sys,
    const std::vector<const load::CachedWorkload*>& frame_workloads,
    Time period, unsigned sim_threads, unsigned sim_chunk) {
  Shared sh(sys);
  sh.period = period;
  sh.workers = resolve_sim_threads(sim_threads, sys.channel_count());

  const std::uint32_t channels = sys.channel_count();
  sh.chunk = resolve_sim_chunk(sim_chunk);
  sh.force_rollback = force_rollback_from_env();
  // Chunked speculation needs >1 worker to pay, a rewindable (or absent)
  // trace writer on every channel for rollback, and <=255 channels for the
  // ChunkMeta byte-wide routing table. Anything else runs on one worker:
  // results are byte-identical at every worker count.
  bool chunked = sh.workers > 1 && sh.chunk > 1 && channels <= 255;
  for (std::uint32_t c = 0; chunked && c < channels; ++c) {
    obs::TraceWriter* tw = sys.channel(c).trace_writer();
    if (tw != nullptr && !tw->supports_rewind()) chunked = false;
  }
  if (!chunked) sh.workers = 1;
  const unsigned hw = std::thread::hardware_concurrency();
  sh.oversubscribed = hw > 0 && sh.workers > hw;

  std::unordered_map<const load::CachedStage*,
                     std::shared_ptr<const load::ChunkMeta>>
      meta_by_stage;
  for (std::size_t f = 0; f < frame_workloads.size(); ++f) {
    const load::CachedWorkload* wl = frame_workloads[f];
    assert(!wl->stages.empty());
    for (std::size_t si = 0; si < wl->stages.size(); ++si) {
      Segment s;
      s.stage = &wl->stages[si];
      s.burst = wl->burst_bytes;
      s.frame = static_cast<int>(f);
      s.first_of_frame = si == 0;
      s.last_of_frame = si + 1 == wl->stages.size();
      sh.segments.push_back(s);
      if (chunked) {
        auto& meta = meta_by_stage[s.stage];
        if (meta == nullptr) {
          meta = load::StreamCache::instance().chunk_meta(
              *wl, si, channels, sh.il.granularity());
        }
        sh.metas.push_back(meta);
      }
    }
  }
  sh.chans = std::vector<ChanState>(sys.channel_count());
  sh.slot_last_done.assign(sh.workers, Time::zero());

  if (chunked) {
    sh.chunked = true;
    std::uint64_t max_n = 0;
    for (const Segment& s : sh.segments) {
      max_n = std::max<std::uint64_t>(max_n, s.stage->reqs.size());
    }
    // Bound the per-chunk record arrays by the largest segment.
    sh.chunk = static_cast<unsigned>(std::min<std::uint64_t>(
        sh.chunk, std::max<std::uint64_t>(max_n, 2)));
    sh.h_pre.assign(sh.chunk, 0);
    sh.flags.assign(sh.chunk, 0);
    sh.div_min.assign(sh.workers, kNoDivergence);
    sh.chan_snaps.resize(channels);
    sh.spool_marks.assign(channels, 0);
    sh.chan_saves.assign(channels, Shared::ChanSave{});
    sh.done_snap.assign(sh.workers, Time::zero());
    sh.seg_index = 0;
    stage_next_chunk(sh, 0, sh.segments.front().stage->reqs.size());
  }

  if (sh.workers == 1) {
    run_worker(sh, 0);
  } else {
    exec::ThreadPool pool(sh.workers - 1);
    for (unsigned w = 1; w < sh.workers; ++w) {
      pool.submit([&sh, w] { run_worker(sh, w); });
    }
    try {
      run_worker(sh, 0);
    } catch (...) {
      // Workers observe `failed` and unwind; surface the first error.
      try {
        pool.wait_idle();
      } catch (...) {
      }
      throw;
    }
    pool.wait_idle();
  }

  for (std::uint32_t c = 0; c < sys.channel_count(); ++c) {
    sys.add_route_count(c, sh.chans[c].routed);
  }
  return sh.out;
}

ShardedRunOutput run_sequential_frames(multichannel::MemorySystem& sys,
                                       std::size_t frames, const FrameFeed& feed,
                                       Time period) {
  static const obs::prof::PhaseId kFeed = obs::prof::phase_id("sim/feed");
  static const obs::prof::PhaseId kDrain = obs::prof::phase_id("sim/drain");
  const std::uint32_t burst = sys.config().device.org.bytes_per_burst();
  ShardedRunOutput out;
  Time t = Time::zero();
  for (std::size_t frame = 0; frame < frames; ++frame) {
    const Time frame_start = t;
    std::vector<FeedSource> sources = feed(frame);

    std::vector<load::TrafficSource*> paced;
    for (FeedSource& s : sources) {
      if (!s.paced) continue;
      s.source->set_start(frame_start);
      s.source->set_pacing(period);
      paced.push_back(s.source.get());
    }

    Time stage_start = frame_start;
    Time stage_last_done = frame_start;
    std::uint16_t stage_id = 0xffff;

    // With paced masters beside it, a completion belongs to the stage only
    // when it carries the stage's source id.
    const auto on_complete = [&](const ctrl::Completion& c) {
      if (paced.empty() || c.req.source == stage_id) {
        stage_last_done = max(stage_last_done, c.done);
      } else {
        out.paced_last_done = max(out.paced_last_done, c.done);
        out.paced_latency_ns.add(c.latency().ns());
      }
    };

    // The paced master with the earliest pending request (merge display and
    // audio by arrival so neither starves behind the other's future-dated
    // requests).
    const auto next_paced = [&]() -> load::TrafficSource* {
      load::TrafficSource* best = nullptr;
      for (load::TrafficSource* p : paced) {
        if (p->done()) continue;
        if (best == nullptr || p->head().arrival < best->head().arrival) best = p;
      }
      return best;
    };

    // Feed every paced request whose arrival the system has reached. The
    // paced masters have priority: when their target queue is full, the
    // memory system is driven until a slot frees (a display underflow is a
    // visible artifact, so real arbiters give scan-out the highest
    // priority).
    const auto feed_paced = [&](Time up_to) {
      while (load::TrafficSource* p = next_paced()) {
        if (p->head().arrival > up_to) break;
        if (sys.try_submit(p->head())) {
          p->advance();
          if (frame == 0) out.bytes_first_frame += burst;
        } else if (auto c = sys.process_next()) {
          on_complete(*c);
        } else {
          break;
        }
      }
    };

    for (FeedSource& s : sources) {
      load::TrafficSource& src = *s.source;
      if (s.paced) {
        if (frame == 0) {
          out.first_frame_stages.push_back(
              StageResult{std::string(src.name()) + " (paced)", stage_start, 0});
        }
        continue;  // fed by feed_paced alongside the stages
      }
      src.set_start(stage_start);
      stage_last_done = stage_start;
      std::uint64_t stage_bytes = 0;
      stage_id = src.done() ? 0xffff : src.head().source;
      const bool pon = obs::prof::enabled();
      const std::int64_t t_feed0 = pon ? obs::prof::now_ns() : 0;
      while (!src.done()) {
        if (!paced.empty()) feed_paced(sys.max_horizon());
        if (sys.try_submit(src.head())) {
          src.advance();
          stage_bytes += burst;
        } else if (auto c = sys.process_next()) {
          on_complete(*c);
        }
      }
      const std::int64_t t_drain0 = pon ? obs::prof::now_ns() : 0;
      // Stage barrier: the next stage consumes this stage's output frame.
      while (auto c = sys.process_next()) on_complete(*c);
      if (pon) {
        const std::int64_t t_end = obs::prof::now_ns();
        obs::prof::tally(kFeed, t_drain0 - t_feed0);
        obs::prof::tally(kDrain, t_end - t_drain0);
      }
      stage_start = max(stage_start, stage_last_done);
      if (frame == 0) {
        out.first_frame_stages.push_back(
            StageResult{std::string(src.name()), stage_start, stage_bytes});
        out.bytes_first_frame += stage_bytes;
      }
    }

    const Time busy = stage_start - frame_start;
    out.access_accum += busy;
    out.per_frame_access.push_back(busy);

    // Finish the remaining paced traffic (it trickles into the idle tail),
    // still in arrival order.
    if (!paced.empty()) {
      stage_id = 0xffff;  // every completion from here on is paced
      feed_paced(Time::max());
      while (auto c = sys.process_next()) on_complete(*c);
    }

    // The next frame starts at the sensor cadence, or immediately when the
    // system is running behind real time.
    t = max(frame_start + period, max(stage_start, out.paced_last_done));
  }
  out.end_time = t;
  return out;
}

}  // namespace mcm::core
