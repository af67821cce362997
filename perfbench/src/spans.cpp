#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::Scope::Scope(SpanLog* log, std::string name, std::uint64_t group)
    : log_(log) {
  if (log_ != nullptr) {
    index_ = log_->open(std::move(name), group);
    start_ns_ = log_->spans_[static_cast<std::size_t>(index_)].start_ns;
  } else {
    start_ns_ = now_ns();
  }
}

double SpanLog::Scope::stop() {
  if (seconds_ >= 0) return seconds_;
  if (log_ != nullptr) {
    log_->close(index_);
    seconds_ = log_->seconds(index_);
  } else {
    seconds_ = static_cast<double>(now_ns() - start_ns_) * 1e-9;
  }
  return seconds_;
}

int SpanLog::open(std::string name, std::uint64_t group) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.group = group;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  child_ns_.push_back(0);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  // Scopes nest lexically, so the span closing is the innermost open one.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  if (s.parent >= 0) {
    child_ns_[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
}

double SpanLog::seconds(int index) const {
  const Span& s = spans_[static_cast<std::size_t>(index)];
  return s.end_ns < 0 ? 0.0 : static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::int64_t SpanLog::self_ns(int index) const {
  const Span& s = spans_[static_cast<std::size_t>(index)];
  if (s.end_ns < 0) return 0;
  return s.end_ns - s.start_ns - child_ns_[static_cast<std::size_t>(index)];
}

double SpanLog::self_seconds(std::string_view name) const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string& n = spans_[i].name;
    const bool match =
        n == name || (n.size() > name.size() && n.compare(0, name.size(), name) == 0 &&
                      n[name.size()] == '.');
    if (match) total += self_ns(static_cast<int>(i));
  }
  return static_cast<double>(total) * 1e-9;
}

double SpanLog::layer_self_seconds_under(
    int root, const std::vector<std::string>& layers) const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    int p = spans_[i].parent;
    while (p >= 0 && p != root) p = spans_[static_cast<std::size_t>(p)].parent;
    if (p != root) continue;
    const std::string& n = spans_[i].name;
    const std::string layer = n.substr(0, n.find('.'));
    if (std::find(layers.begin(), layers.end(), layer) != layers.end()) {
      total += self_ns(static_cast<int>(i));
    }
  }
  return static_cast<double>(total) * 1e-9;
}

void SpanLog::write_chrome_trace(std::ostream& out) const {
  const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  mcm::obs::JsonValue events = mcm::obs::JsonValue::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    mcm::obs::JsonValue e = mcm::obs::JsonValue::object();
    e["name"] = s.name;
    e["cat"] = s.name.substr(0, s.name.find('.'));
    e["ph"] = "X";
    e["ts"] = static_cast<double>(s.start_ns - epoch) * 1e-3;
    e["dur"] = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    e["pid"] = 1;
    e["tid"] = 1;
    mcm::obs::JsonValue& args = e["args"];
    args["id"] = static_cast<std::uint64_t>(i);
    args["parent"] = s.parent;
    args["group"] = s.group;
    args["self_us"] = static_cast<double>(self_ns(static_cast<int>(i))) * 1e-3;
    events.push(std::move(e));
  }
  mcm::obs::JsonValue doc = mcm::obs::JsonValue::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  doc.dump(out, 0);
  out << '\n';
}

}  // namespace perfbench
