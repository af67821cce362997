// MultiStreamSource emits run by run from cached per-stream state (wrapped
// offsets, progress fractions refreshed when a run ends). This checks both of
// its paths - head()/advance() and the bulk drain() - against a literal copy
// of the straightforward algorithm it replaced: per-request `cursor % window`
// and every stream's fraction recomputed at each selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/rng.hpp"
#include "load/multi_stream_source.hpp"

namespace mcm::load {
namespace {

/// The reference emitter: one request per step, nothing cached.
class ReferenceMultiStream {
 public:
  ReferenceMultiStream(std::vector<StreamSpec> streams, std::uint32_t chunk_bytes,
                       std::uint32_t burst_bytes)
      : chunk_(chunk_bytes), burst_(burst_bytes) {
    chunk_ = static_cast<std::uint32_t>(round_up(chunk_, burst_));
    for (auto& s : streams) {
      if (s.bytes == 0) continue;
      s.bytes = round_up(s.bytes, burst_);
      if (s.window == 0) s.window = s.bytes;
      s.window = round_up(s.window, burst_);
      total_ += s.bytes;
      streams_.push_back(StreamState{s, 0});
    }
    remaining_ = total_;
    if (remaining_ > 0) select_stream();
  }

  [[nodiscard]] bool done() const { return remaining_ == 0; }
  void set_start(Time t) { start_ = t; }
  void set_pacing(Time d) { pace_duration_ = d; }

  [[nodiscard]] ctrl::Request head() const {
    const auto& st = streams_[current_];
    ctrl::Request r;
    r.addr = st.spec.base + st.cursor % st.spec.window;
    r.is_write = st.spec.is_write;
    r.source = st.spec.source_id;
    r.arrival = start_;
    if (pace_duration_ > Time::zero() && total_ > 0) {
      const double frac = static_cast<double>(issued_) / static_cast<double>(total_);
      r.arrival = start_ + Time{static_cast<std::int64_t>(
                               frac * static_cast<double>(pace_duration_.ps()))};
    }
    return r;
  }

  void advance() {
    auto& st = streams_[current_];
    const std::uint64_t step = std::min<std::uint64_t>(burst_, st.spec.bytes - st.cursor);
    st.cursor += step;
    issued_ += step;
    remaining_ -= step;
    chunk_left_ = chunk_left_ > step ? chunk_left_ - step : 0;
    if (remaining_ == 0) return;
    if (chunk_left_ == 0 || st.cursor >= st.spec.bytes) select_stream();
  }

 private:
  struct StreamState {
    StreamSpec spec;
    std::uint64_t cursor = 0;
  };

  static std::uint64_t round_up(std::uint64_t v, std::uint64_t a) {
    return (v + a - 1) / a * a;
  }

  void select_stream() {
    double best_frac = 2.0;
    std::size_t best = streams_.size();
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      const auto& st = streams_[i];
      if (st.cursor >= st.spec.bytes) continue;
      const double frac =
          static_cast<double>(st.cursor) / static_cast<double>(st.spec.bytes);
      if (frac < best_frac) {
        best_frac = frac;
        best = i;
      }
    }
    assert(best < streams_.size());
    current_ = best;
    const auto& st = streams_[current_];
    chunk_left_ = std::min<std::uint64_t>(chunk_, st.spec.bytes - st.cursor);
  }

  std::vector<StreamState> streams_;
  std::uint32_t chunk_;
  std::uint32_t burst_;
  std::uint64_t total_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t remaining_ = 0;
  std::size_t current_ = 0;
  std::uint64_t chunk_left_ = 0;
  Time start_ = Time::zero();
  Time pace_duration_ = Time::zero();
};

struct Case {
  std::vector<StreamSpec> streams;
  std::uint32_t chunk = 64;
  std::uint32_t burst = 16;
  Time start = Time::zero();
  Time pacing = Time::zero();
};

/// Random spec sets covering the corners: windows off the chunk grid,
/// volumes off the burst grid, zero-volume streams, chunks below a burst,
/// 1-4 streams, and paced arrivals.
Case random_case(Rng& rng) {
  static constexpr std::uint32_t kBursts[] = {16, 32, 64};
  static constexpr std::uint32_t kChunks[] = {8, 16, 24, 48, 64, 100, 256, 4096};
  Case c;
  c.burst = kBursts[rng.next_below(3)];
  c.chunk = kChunks[rng.next_below(8)];
  const int n = 1 + static_cast<int>(rng.next_below(4));
  for (int s = 0; s < n; ++s) {
    StreamSpec spec;
    spec.base = rng.next_below(1u << 20) * 16;
    switch (rng.next_below(4)) {
      case 0: spec.bytes = 0; break;
      case 1: spec.bytes = rng.next_below(200); break;
      default: spec.bytes = rng.next_below(30'000); break;
    }
    switch (rng.next_below(3)) {
      case 0: spec.window = 0; break;
      case 1: spec.window = 1 + rng.next_below(300); break;
      default: spec.window = 1 + rng.next_below(8'000); break;
    }
    spec.is_write = rng.next_below(2) == 1;
    spec.source_id = static_cast<std::uint16_t>(rng.next_below(16));
    c.streams.push_back(spec);
  }
  if (rng.next_below(2) == 0) {
    c.start = Time{static_cast<std::int64_t>(rng.next_below(1'000'000))};
    c.pacing = Time{static_cast<std::int64_t>(1 + rng.next_below(50'000'000))};
  }
  return c;
}

TEST(MultiStreamEmission, BothPathsMatchTheReferenceAlgorithm) {
  Rng rng(20260611);
  int zero_volume = 0, small_chunk = 0, paced = 0, off_grid_window = 0;
  for (int k = 0; k < 200; ++k) {
    const Case c = random_case(rng);
    for (const auto& s : c.streams) {
      zero_volume += s.bytes == 0;
      off_grid_window += s.window % c.chunk != 0;
    }
    small_chunk += c.chunk < c.burst;
    paced += c.pacing > Time::zero();

    ReferenceMultiStream ref(c.streams, c.chunk, c.burst);
    ref.set_start(c.start);
    ref.set_pacing(c.pacing);
    std::vector<ctrl::Request> want;
    while (!ref.done()) {
      want.push_back(ref.head());
      ref.advance();
    }

    MultiStreamSource stepped("s", c.streams, c.chunk, c.burst);
    stepped.set_start(c.start);
    stepped.set_pacing(c.pacing);
    std::size_t i = 0;
    while (!stepped.done()) {
      ASSERT_LT(i, want.size()) << "case " << k;
      const ctrl::Request r = stepped.head();
      ASSERT_EQ(r.addr, want[i].addr) << "case " << k << " request " << i;
      ASSERT_EQ(r.is_write, want[i].is_write) << "case " << k << " request " << i;
      ASSERT_EQ(r.source, want[i].source) << "case " << k << " request " << i;
      ASSERT_EQ(r.arrival, want[i].arrival) << "case " << k << " request " << i;
      stepped.advance();
      ++i;
    }
    ASSERT_EQ(i, want.size()) << "case " << k;

    MultiStreamSource bulk("b", c.streams, c.chunk, c.burst);
    std::size_t j = 0;
    bool ok = true;
    bulk.drain([&](std::uint64_t addr, bool is_write) {
      ok = ok && j < want.size() && addr == want[j].addr &&
           is_write == want[j].is_write;
      ++j;
    });
    EXPECT_TRUE(ok) << "case " << k;
    EXPECT_EQ(j, want.size()) << "case " << k;
    EXPECT_TRUE(bulk.done());
  }
  // The random specs must actually reach every corner named above.
  EXPECT_GT(zero_volume, 0);
  EXPECT_GT(small_chunk, 0);
  EXPECT_GT(paced, 0);
  EXPECT_GT(off_grid_window, 0);
}

TEST(MultiStreamEmission, DrainAfterPartialSteppingFinishesTheStream) {
  // drain() continues from wherever head()/advance() left the machine.
  const std::vector<StreamSpec> specs = {{0x1000, 1000, 96, false, 1},
                                         {0x9000, 400, 0, true, 2}};
  ReferenceMultiStream ref(specs, 48, 16);
  MultiStreamSource src("p", specs, 48, 16);
  for (int n = 0; n < 7; ++n) {
    ASSERT_EQ(src.head().addr, ref.head().addr);
    src.advance();
    ref.advance();
  }
  std::vector<std::uint64_t> rest, want;
  src.drain([&](std::uint64_t addr, bool) { rest.push_back(addr); });
  while (!ref.done()) {
    want.push_back(ref.head().addr);
    ref.advance();
  }
  EXPECT_EQ(rest, want);
}

}  // namespace
}  // namespace mcm::load
