// Structured trace: an opt-in, low-overhead JSONL event stream of DRAM
// commands (ACT/RD/WR/PRE/REF/PDE/PDX/SRE/SRX with cycle timestamps and
// channel/bank/row) and request lifecycle spans (arrival -> first command ->
// data end). The controller writes through the abstract `TraceWriter`
// interface; the hot-path cost of a *disabled* writer is one null-pointer
// check in the controller.
//
// Two writers exist:
//  - `TraceSink` streams straight to an ostream through a fixed-capacity
//    staging buffer (the original single-threaded behavior).
//  - `TraceSpool` accumulates events in memory, one spool per channel, for
//    the channel-sharded simulator; `merge_trace_spools` then emits one
//    JSONL stream in canonical (time, channel, per-channel sequence) order,
//    which is byte-identical at any MCM_SIM_THREADS setting because each
//    channel's event sequence is.
//
// Schema (one JSON object per line, schema id "mcm.trace/v1"):
//   {"type":"meta","schema":"mcm.trace/v1","version":1}
//   {"type":"cmd","ch":0,"t_ps":2500,"cmd":"ACT","bank":1,"row":42}
//   {"type":"req","ch":0,"op":"RD","addr":4096,"arrival_ps":0,
//    "first_cmd_ps":2500,"done_ps":30000,"latency_ps":30000,"row_hit":0}
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "common/units.hpp"
#include "dram/command.hpp"

namespace mcm::obs {

struct TraceEvent {
  enum class Kind : std::uint8_t { kCommand, kSpan } kind = Kind::kCommand;
  std::uint32_t channel = 0;
  // kCommand:
  Time at = Time::zero();
  dram::Command cmd = dram::Command::kActivate;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  // kSpan:
  std::uint64_t addr = 0;
  bool is_write = false;
  Time arrival = Time::zero();
  Time first_cmd = Time::zero();
  Time done = Time::zero();
  bool row_hit = false;

  /// Timestamp used for canonical cross-channel ordering: command issue
  /// edge for commands, data-end for request spans.
  [[nodiscard]] Time order_time() const {
    return kind == Kind::kCommand ? at : done;
  }
};

/// Abstract event consumer the controller traces into.
class TraceWriter {
 public:
  virtual ~TraceWriter() = default;

  /// One DRAM command edge on `channel`.
  virtual void command(std::uint32_t channel, Time at, dram::Command cmd,
                       std::uint32_t bank, std::uint32_t row) = 0;

  /// One request lifecycle span on `channel`.
  virtual void span(std::uint32_t channel, std::uint64_t addr, bool is_write,
                    Time arrival, Time first_cmd, Time done, bool row_hit) = 0;

  /// Whether this writer can discard events back to a mark() checkpoint.
  /// Streaming writers cannot (bytes already left the process); the sharded
  /// engine only speculates when every attached writer supports rewind.
  [[nodiscard]] virtual bool supports_rewind() const { return false; }

  /// Opaque checkpoint of the events recorded so far.
  [[nodiscard]] virtual std::uint64_t mark() const { return 0; }

  /// Discard every event recorded after `checkpoint`. Only meaningful when
  /// supports_rewind() is true.
  virtual void rewind(std::uint64_t checkpoint) { (void)checkpoint; }
};

/// Write the schema meta line that must open every trace stream.
void write_trace_meta(std::ostream& out);

/// Format one event as its JSONL line (newline included).
void write_trace_event(std::ostream& out, const TraceEvent& e);

/// Streams events to an ostream in emission order through a fixed staging
/// buffer; flushes when the buffer fills and on destruction.
class TraceSink final : public TraceWriter {
 public:
  /// `buffer_events` bounds the in-memory staging area; the sink flushes to
  /// `out` whenever it fills (and on destruction).
  explicit TraceSink(std::ostream& out, std::size_t buffer_events = 4096);
  ~TraceSink() override;

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void command(std::uint32_t channel, Time at, dram::Command cmd,
               std::uint32_t bank, std::uint32_t row) override;
  void span(std::uint32_t channel, std::uint64_t addr, bool is_write,
            Time arrival, Time first_cmd, Time done, bool row_hit) override;

  /// Format and write out all buffered events.
  void flush();

  [[nodiscard]] std::uint64_t events_recorded() const { return events_; }

 private:
  std::ostream& out_;
  std::vector<TraceEvent> buf_;
  std::size_t capacity_;
  std::uint64_t events_ = 0;
};

/// Accumulates one channel's events in memory (emission order). Not
/// thread-safe by itself; the sharded simulator gives each channel its own
/// spool, so no two threads ever write the same spool.
class TraceSpool final : public TraceWriter {
 public:
  void command(std::uint32_t channel, Time at, dram::Command cmd,
               std::uint32_t bank, std::uint32_t row) override;
  void span(std::uint32_t channel, std::uint64_t addr, bool is_write,
            Time arrival, Time first_cmd, Time done, bool row_hit) override;

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::uint64_t events_recorded() const { return events_.size(); }

  /// Spools buffer in memory, so speculative events can be truncated.
  [[nodiscard]] bool supports_rewind() const override { return true; }
  [[nodiscard]] std::uint64_t mark() const override { return events_.size(); }
  void rewind(std::uint64_t checkpoint) override {
    if (checkpoint < events_.size()) events_.resize(checkpoint);
  }

 private:
  std::vector<TraceEvent> events_;
};

/// Merge per-channel spools into one JSONL stream (meta line first) sorted
/// by (order_time, channel, per-channel emission sequence). Spool `i` is
/// treated as channel `i` for tie-breaking.
void merge_trace_spools(const std::vector<const TraceSpool*>& spools,
                        std::ostream& out);

}  // namespace mcm::obs
