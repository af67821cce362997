#include "load/multi_stream_source.hpp"

#include <cassert>
#include <stdexcept>

namespace mcm::load {
namespace {

std::uint64_t round_up(std::uint64_t v, std::uint64_t a) { return (v + a - 1) / a * a; }

}  // namespace

MultiStreamSource::MultiStreamSource(std::string name, std::vector<StreamSpec> streams,
                                     std::uint32_t chunk_bytes,
                                     std::uint32_t burst_bytes)
    : name_(std::move(name)), chunk_(chunk_bytes), burst_(burst_bytes) {
  if (burst_ == 0 || chunk_ == 0) throw std::invalid_argument("zero granularity");
  chunk_ = static_cast<std::uint32_t>(round_up(chunk_, burst_));
  streams_.reserve(streams.size());
  for (auto& s : streams) {
    if (s.bytes == 0) continue;
    s.bytes = round_up(s.bytes, burst_);
    if (s.window == 0) s.window = s.bytes;
    s.window = round_up(s.window, burst_);
    total_ += s.bytes;
    streams_.push_back(StreamState{s});
  }
  remaining_ = total_;
  if (remaining_ > 0) select_stream();
}

void MultiStreamSource::select_stream() {
  // Pick the stream with the lowest progress fraction so interleaving stays
  // proportional to each stream's volume. Only the stream whose run just
  // ended has moved, so the other fractions are still current.
  double best_frac = 2.0;
  std::size_t best = streams_.size();
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const auto& st = streams_[i];
    if (st.cursor >= st.spec.bytes) continue;
    if (st.frac < best_frac) {
      best_frac = st.frac;
      best = i;
    }
  }
  assert(best < streams_.size());
  current_ = best;
  const auto& st = streams_[current_];
  chunk_left_ = std::min<std::uint64_t>(chunk_, st.spec.bytes - st.cursor);
}

void MultiStreamSource::consume(std::uint64_t bytes) {
  // Volumes, windows and chunks are whole bursts, so a run ends exactly when
  // its chunk or its stream is used up.
  auto& st = streams_[current_];
  st.cursor += bytes;
  issued_ += bytes;
  remaining_ -= bytes;
  chunk_left_ -= bytes;
  if (chunk_left_ > 0) return;
  st.frac = static_cast<double>(st.cursor) / static_cast<double>(st.spec.bytes);
  if (remaining_ > 0) select_stream();
}

ctrl::Request MultiStreamSource::head() const {
  assert(!done());
  const auto& st = streams_[current_];
  ctrl::Request r;
  r.addr = st.spec.base + st.offset;
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

void MultiStreamSource::advance() {
  assert(!done());
  auto& st = streams_[current_];
  st.offset += burst_;
  if (st.offset == st.spec.window) st.offset = 0;
  consume(burst_);
}

}  // namespace mcm::load
