// Span recorder for the benchmark's traced run. Spans are recorded by the
// benchmark itself, around its calls into the simulator's modules, on the
// benchmark's main thread; they are kept in memory and written out once at
// exit as Chrome trace_events JSON (loadable in ui.perfetto.dev).
//
// A span's layer is its name up to the first '.', e.g. "core" for
// "core.engine". A span's self time is its duration minus the part its
// child spans cover; because every span is opened and closed on one thread
// in strict nesting order, children never overlap, so that part is the sum
// of the children's durations.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// steady_clock now, in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    int parent = -1;           // index into spans(), -1 for a root span
    std::uint64_t group = 0;   // spans of one grid point or frame share it
  };

  /// RAII span: opens on construction, closes on destruction or stop().
  /// With no log it is a plain timer.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, std::uint64_t group);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close now (idempotent); returns the duration in seconds.
    double stop();

   private:
    SpanLog* log_;
    int index_ = -1;
    std::int64_t start_ns_ = 0;
    double seconds_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Sum of self time over closed spans named `name` or `name.*`, seconds.
  [[nodiscard]] double self_seconds(std::string_view name) const;

  /// Sum of self time over the closed descendants of span `root` whose
  /// layer is one of `layers`, seconds.
  [[nodiscard]] double layer_self_seconds_under(
      int root, const std::vector<std::string>& layers) const;

  [[nodiscard]] double seconds(int index) const;

  void write_chrome_trace(std::ostream& out) const;

 private:
  friend class Scope;
  int open(std::string name, std::uint64_t group);
  void close(int index);
  [[nodiscard]] std::int64_t self_ns(int index) const;

  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::int64_t> child_ns_;  // per span: summed child durations
};

/// Convenience for code paths that may or may not be traced.
inline SpanLog::Scope span(SpanLog* log, std::string name,
                           std::uint64_t group = 0) {
  return SpanLog::Scope(log, std::move(name), group);
}

}  // namespace perfbench
